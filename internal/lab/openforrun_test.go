package lab

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/obs"
)

// TestOpenForRunOutcomes pins the CLI store helper's contract: the run's
// own error wins over a close error, a close error surfaces on an otherwise
// successful run, and the stats line is printed only on success. The store
// traffic reaches the manifest in every case.
func TestOpenForRunOutcomes(t *testing.T) {
	runErr := errors.New("sweep failed")
	cases := []struct {
		name       string
		runErr     error
		breakClose bool
		wantErr    string // substring of the returned error; "" wants nil
		wantStats  bool
	}{
		{"success prints stats", nil, false, "", true},
		{"run error wins over close error", runErr, true, "sweep failed", false},
		{"close error surfaces", nil, true, "index sidecar", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec := obs.New(obs.Config{Tool: "test"})
			var stderr strings.Builder
			store, finish, err := OpenForRun(dir, rec, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := bench.TrialSpecBytes(trialW(1))
			if err != nil {
				t.Fatal(err)
			}
			var res bench.Result
			ps := &bench.PreparedSpec{Spec: spec}
			store.Lookup(bench.KindTrial, ps, &res)
			if err := store.Put(bench.KindTrial, ps, bench.Result{Throughput: 1}); err != nil {
				t.Fatal(err)
			}
			if tc.breakClose {
				// A directory where Close renames the sidecar makes Close fail.
				if err := os.MkdirAll(filepath.Join(dir, "segments", "index.json", "x"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			err = func() (err error) {
				defer finish(&err)
				return tc.runErr
			}()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			const stats = "store: 0 hits, 1 misses (0% warm)"
			if got := strings.Contains(stderr.String(), stats); got != tc.wantStats {
				t.Errorf("stderr %q: stats line printed = %v, want %v", stderr.String(), got, tc.wantStats)
			}
			if m := rec.Manifest(); m.Store == nil || m.Store.Misses != 1 || m.Store.Puts != 1 {
				t.Errorf("manifest store rollup = %+v, want 1 miss and 1 put", m.Store)
			}
		})
	}
}

// TestOpenForRunWithoutStore: no -store means a nil TrialStore interface —
// not a typed nil the Runner would call into — and a finish that leaves the
// run's error alone and prints nothing.
func TestOpenForRunWithoutStore(t *testing.T) {
	var stderr strings.Builder
	store, finish, err := OpenForRun("", nil, &stderr)
	if err != nil || store != nil {
		t.Fatalf("OpenForRun(\"\") = %v, %v; want nil store, nil error", store, err)
	}
	runErr := errors.New("boom")
	err = runErr
	finish(&err)
	if err != runErr || stderr.Len() != 0 {
		t.Fatalf("finish changed err to %v or printed %q", err, stderr.String())
	}
}
