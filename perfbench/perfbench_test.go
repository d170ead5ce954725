package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"condaccess/internal/bench"
)

// The tests shrink the store grid to testReplicas trials per cell so they
// run in seconds. That changes the job list, so they use a seed with no
// pinned digest.
const (
	testReplicas = 2
	testSeed     = 7
)

// tinyJobs is a cold workload small enough to run many passes of in a test.
func tinyJobs(seed uint64, _ int) ([]job, error) {
	return sweepJobs(bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{1, 2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: seed, Trials: 1,
	})
}

// TestCheckFiresOnPerturbedResult shows the output check counting a trial
// whose result differs from its reference as failed: a cold workload
// against its first pass, and a warm store hit against the result set-up
// simulated.
func TestCheckFiresOnPerturbedResult(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		f, err := setup(workloadSpec{name: "tiny", jobs: tinyJobs}, testSeed, testReplicas, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := &checker{}
		for pass := 0; pass < 3; pass++ {
			p, err := f.pass(nil, false)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if pass == 2 {
				p.trials[1].res.Retries++
				want = 1
			}
			if got, err := c.check(p); err != nil || got != want {
				t.Fatalf("pass %d: %d failed trials (err %v), want %d", pass, got, err, want)
			}
		}
	})
	t.Run("warm", func(t *testing.T) {
		spec, err := lookupWorkload("store-warm")
		if err != nil {
			t.Fatal(err)
		}
		f, err := setup(spec, testSeed, testReplicas, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		refs := slices.Clone(f.refs)
		refs[3][0] ^= 1
		c := &checker{refs: refs}
		p, err := f.pass(nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.lab.Misses != 0 || p.lab.Hits != uint64(len(f.jobs)) {
			t.Fatalf("warm pass: %d hits, %d misses over %d jobs", p.lab.Hits, p.lab.Misses, len(f.jobs))
		}
		if got, err := c.check(p); err != nil || got != 1 {
			t.Fatalf("%d failed trials (err %v), want 1", got, err)
		}
	})
	t.Run("pin", func(t *testing.T) {
		spec, err := lookupWorkload("sim-figure")
		if err != nil {
			t.Fatal(err)
		}
		c := &checker{refs: []digest{{1}}}
		if problems := verify(spec, defaultSeed, c); len(problems) != 1 || !strings.Contains(problems[0], "pinned") {
			t.Fatalf("problems %q, want one pinned-digest mismatch", problems)
		}
		if problems := verify(spec, testSeed, c); len(problems) != 0 {
			t.Fatalf("unpinned seed: problems %q", problems)
		}
	})
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportsEveryDeclaredMetric runs every workload briefly, untraced and
// traced, and checks the result line: correct, and carrying exactly the
// metrics BENCHMARK.json declares, with their units.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared := b.EndToEnd
			if traced {
				declared = b.PerLayer
			}
			var stderr bytes.Buffer
			rep, err := execute(options{
				workload: w.name, seed: testSeed, seconds: 0.01, trace: traced,
				out: t.TempDir(), replicas: testReplicas,
			}, &stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted, stderr.String())
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rep.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, declared unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "store-warm", "--trace", "2"},
		{"--workload", "store-warm", "--seconds", "0"},
		{"--workload", "store-warm", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
     phase:  measure
  workload:  store-warm
      20ms   encoding/json.(*decodeState).object
             condaccess/internal/lab.(*Store).lookupKey
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     phase:  check
      30ms   encoding/json.(*encodeState).reflectValue
-----------+-------------------------------------------------------
     phase:  measure
      1.50s  condaccess/internal/cache.(*l1cache).find (inline)
             condaccess/internal/cache.(*Hierarchy).Read
-----------+-------------------------------------------------------
     phase:  measure
      10ms   runtime.gogo
             runtime.mcall
             runtime.coroswitch
             iter.Pull[...].func1
-----------+-------------------------------------------------------
     phase:  measure
      10ms   syscall.Syscall6
             internal/poll.(*FD).Pread
             os.(*File).ReadAt
             condaccess/internal/lab.(*Store).loadKey
-----------+-------------------------------------------------------
     phase:  measure
      10ms   crypto/internal/fips140/sha256.blockAMD64
             crypto/sha256.Sum256
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"json": 20 * time.Millisecond, "gc": 10 * time.Millisecond,
		"cache": 1500 * time.Millisecond, "sim": 10 * time.Millisecond, "sha256": 10 * time.Millisecond,
		"syscall": 10 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
}
