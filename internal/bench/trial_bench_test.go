package bench

import (
	"fmt"
	"testing"

	"condaccess/internal/trace"
)

// benchTrialWorkload is the paper-default single trial for one structure ×
// scheme cell: 8 threads, 100% updates, 3000 ops/thread, the per-structure
// key ranges cabench defaults to. The bst/ca cell is the repo's headline
// single-trial benchmark (BENCH_simcore.json tracks it).
func benchTrialWorkload(ds, scheme string) Workload {
	kr := uint64(1000)
	if ds == "bst" {
		kr = 10000
	}
	return Workload{
		DS: ds, Scheme: scheme,
		Threads: 8, KeyRange: kr, UpdatePct: 100,
		OpsPerThread: 3000, Buckets: 128,
		Seed: 1,
	}
}

// BenchmarkTrial measures single-trial wall-clock time over the structure ×
// scheme matrix. One iteration is one complete trial: machine construction
// (or reuse), prefill to 50%, and the measured phase. ns/op is host time per
// simulated trial — the quantity the execution-core refactors optimize.
func BenchmarkTrial(b *testing.B) {
	for _, ds := range Structures() {
		for _, scheme := range []string{"ca", "rcu", "hp"} {
			b.Run(fmt.Sprintf("%s/%s", ds, scheme), func(b *testing.B) {
				w := benchTrialWorkload(ds, scheme)
				var r Runner // machine reuse across iterations, as in a sweep
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrialTraced is BenchmarkTrial's A/B guard for the tracing and
// timeline hooks: the same headline cells with a live event sink and
// timeline recording. Comparing against BenchmarkTrial bounds what tracing
// costs when it is on; the off path's cost (a nil check per hook) is what
// keeps the two BenchmarkTrial numbers themselves stable across this
// feature's introduction.
func BenchmarkTrialTraced(b *testing.B) {
	for _, ds := range []string{"list", "bst"} {
		for _, scheme := range []string{"ca", "rcu"} {
			b.Run(fmt.Sprintf("%s/%s", ds, scheme), func(b *testing.B) {
				w := benchTrialWorkload(ds, scheme)
				w.RecordTimeline = true
				r := Runner{Trace: &trace.Sink{}}
				for i := 0; i < b.N; i++ {
					r.Trace.Reset() // bound sink growth; keeps allocations
					if _, err := r.Run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestTrialAllocBudget pins the allocations of one cold trial on a reused
// Runner, the way TestLookupAllocBudget pins a warm store hit: a count, not a
// time, so it holds on any host. Each budget is the cell's count before the
// cache ports existed; a simulated access that allocates, or a port that
// escapes to the heap, overruns it.
//
// The coroutines behind each multi-thread phase make the runtime allocate a
// few goroutine records now and then, so a trial's count sits at its floor
// or a handful above it. The test measures up to three trials and passes on
// the first at or under budget: noise only adds, and a regression lifts the
// floor itself.
func TestTrialAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		ds, scheme string
		budget     float64
	}{
		{"bst", "ca", 133},
		{"list", "hp", 796},
		{"hash", "rcu", 329},
	} {
		t.Run(tc.ds+"/"+tc.scheme, func(t *testing.T) {
			w := benchTrialWorkload(tc.ds, tc.scheme)
			var r Runner
			var counts []float64
			for len(counts) < 3 {
				// AllocsPerRun's warm-up run builds the machine the measured
				// trial reuses.
				allocs := testing.AllocsPerRun(1, func() {
					if _, err := r.Run(w); err != nil {
						t.Fatal(err)
					}
				})
				if allocs <= tc.budget {
					return
				}
				counts = append(counts, allocs)
			}
			t.Fatalf("trials allocate %v times, budget %v", counts, tc.budget)
		})
	}
}
