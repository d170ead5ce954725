package obs

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandContract pins the shared CLI frame over a fake command: exit
// codes 0/1/2, at most one "tool: err" line on stderr (none after the flag
// package's own message), -version before resolve, and the run error
// winning over a session teardown error.
func TestCommandContract(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A manifest under a regular file cannot be written, so Session.Close
	// fails after the body has run.
	badManifest := filepath.Join(plain, "m.json")

	for _, tc := range []struct {
		name     string
		args     []string
		code     int
		resolved bool
		flagMsg  bool   // the flag package printed its own message
		line     string // prefix of the one "fake: " stderr line; "" for none
		stdout   string // prefix
	}{
		{name: "ok", args: nil, code: 0, resolved: true, stdout: "ran"},
		{name: "bad flag", args: []string{"-nosuchflag"}, code: 2, flagMsg: true},
		{name: "help", args: []string{"-h"}, code: 0, flagMsg: true},
		{name: "version before resolve", args: []string{"-version", "-n", "-1"}, code: 0, stdout: "fake "},
		{name: "resolve error", args: []string{"-n", "-1"}, code: 2, resolved: true, line: "fake: -n must be non-negative"},
		{name: "body error", args: []string{"-n", "1"}, code: 1, resolved: true, line: "fake: body failed"},
		{name: "close error after success", args: []string{"-manifest", badManifest}, code: 1, resolved: true, line: "fake: obs: "},
		{name: "body error wins over close error", args: []string{"-n", "1", "-manifest", badManifest}, code: 1, resolved: true, line: "fake: body failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ob CLIFlags
			var n int
			resolved := false
			cmd := Command{
				Tool: "fake", EngineTag: "e1", Obs: &ob,
				Flags: func(fs *flag.FlagSet) func() (SessionConfig, error) {
					fs.IntVar(&n, "n", 0, "fail the body when 1")
					return func() (SessionConfig, error) {
						resolved = true
						if n < 0 {
							return SessionConfig{}, errors.New("-n must be non-negative")
						}
						return SessionConfig{Spec: n}, nil
					}
				},
				Body: func(_ *Rec, stdout, _ io.Writer) error {
					if n == 1 {
						return errors.New("body failed")
					}
					_, err := io.WriteString(stdout, "ran\n")
					return err
				},
			}
			var stdout, stderr strings.Builder
			if code := cmd.Main(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("Main(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if resolved != tc.resolved {
				t.Errorf("resolve ran = %v, want %v", resolved, tc.resolved)
			}
			if !strings.HasPrefix(stdout.String(), tc.stdout) {
				t.Errorf("stdout = %q, want prefix %q", stdout.String(), tc.stdout)
			}
			got := stderr.String()
			switch {
			case tc.flagMsg:
				if got == "" || strings.HasPrefix(got, "fake: ") || strings.Contains(got, "\nfake: ") {
					t.Errorf("stderr = %q, want the flag package's message and no frame line", got)
				}
			case tc.line == "":
				if got != "" {
					t.Errorf("stderr = %q, want empty", got)
				}
			case strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, tc.line):
				t.Errorf("stderr = %q, want exactly one line starting %q", got, tc.line)
			}
		})
	}
}
