package condaccess

// One benchmark per table/figure of the paper's evaluation (Section V), at
// reduced scale so `go test -bench=.` finishes in minutes; cmd/figures runs
// the full-scale sweeps. Each benchmark iteration executes one complete
// simulated trial; the headline number is the custom metric simMops/Mcyc
// (simulated operations per million simulated cycles — the paper's
// throughput axis), not ns/op.

import (
	"fmt"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/cache"
	"condaccess/internal/smr"
)

var figSchemes = []string{"none", "ca", "ibr", "rcu", "qsbr", "hp", "he"}

// benchFigure runs the scheme x threads x update-rate cross product for one
// structure as sub-benchmarks.
func benchFigure(b *testing.B, ds string, keyRange uint64) {
	for _, u := range []int{0, 100} {
		for _, threads := range []int{1, 8} {
			for _, scheme := range figSchemes {
				name := fmt.Sprintf("%s/u=%d/t=%d", scheme, u, threads)
				b.Run(name, func(b *testing.B) {
					var tp float64
					for i := 0; i < b.N; i++ {
						res, err := bench.Run(bench.Workload{
							DS: ds, Scheme: scheme,
							Threads: threads, KeyRange: keyRange, UpdatePct: u,
							OpsPerThread: 300, Buckets: 128,
							Seed: uint64(i) + 1,
						})
						if err != nil {
							b.Fatal(err)
						}
						tp = res.Throughput
					}
					b.ReportMetric(tp, "simops/Mcyc")
				})
			}
		}
	}
}

// BenchmarkFig1List is Figure 1 (top row): lazy list, 1K keys.
func BenchmarkFig1List(b *testing.B) { benchFigure(b, "list", 1000) }

// BenchmarkFig1BST is Figure 1 (bottom row): external BST, 10K keys.
func BenchmarkFig1BST(b *testing.B) { benchFigure(b, "bst", 10000) }

// BenchmarkFig2Hash is Figure 2 (top row): 128-bucket chaining hash table.
func BenchmarkFig2Hash(b *testing.B) { benchFigure(b, "hash", 1000) }

// BenchmarkFig2Stack is Figure 2 (bottom row): Treiber stack.
func BenchmarkFig2Stack(b *testing.B) { benchFigure(b, "stack", 1000) }

// BenchmarkQueue covers the M&S queue the paper implements but does not
// plot, with the same axes as Figure 2.
func BenchmarkQueue(b *testing.B) { benchFigure(b, "queue", 1000) }

// BenchmarkFig3Footprint is Figure 3: allocated-but-not-freed nodes on the
// lazy list under 100% updates at 16 threads. The reported metric is the
// final live-node count (the paper's Y axis); ca should sit at ~500, none
// far above, the batching schemes in between.
func BenchmarkFig3Footprint(b *testing.B) {
	for _, scheme := range figSchemes {
		b.Run(scheme, func(b *testing.B) {
			var live float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.Fig3Workload(scheme, 1000, uint64(i)+1, false))
				if err != nil {
					b.Fatal(err)
				}
				live = float64(res.Mem.NodeLive())
			}
			b.ReportMetric(live, "liveNodes")
		})
	}
}

// BenchmarkAblationAssociativity is the Section III claim: tagSet capacity
// (L1 associativity) does not significantly affect Conditional Access.
func BenchmarkAblationAssociativity(b *testing.B) {
	for _, assoc := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("assoc=%d", assoc), func(b *testing.B) {
			p := cache.DefaultParams(8)
			p.L1Assoc = assoc
			var tp float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.Workload{
					DS: "list", Scheme: "ca",
					Threads: 8, KeyRange: 1000, UpdatePct: 100,
					OpsPerThread: 500, Seed: uint64(i) + 1, Cache: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				tp = res.Throughput
			}
			b.ReportMetric(tp, "simops/Mcyc")
		})
	}
}

// BenchmarkAblationTuning is the paper's motivation: the baselines need
// their reclamation/epoch frequencies tuned; CA has no parameters.
func BenchmarkAblationTuning(b *testing.B) {
	type point struct {
		scheme  string
		reclaim int
		epoch   int
	}
	points := []point{
		{"rcu", 1, 10}, {"rcu", 30, 150}, {"rcu", 1000, 5000},
		{"ibr", 1, 10}, {"ibr", 30, 150}, {"ibr", 1000, 5000},
		{"ca", 0, 0},
	}
	for _, pt := range points {
		name := fmt.Sprintf("%s/r=%d_e=%d", pt.scheme, pt.reclaim, pt.epoch)
		b.Run(name, func(b *testing.B) {
			var tp, peak float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.Workload{
					DS: "list", Scheme: pt.scheme,
					Threads: 8, KeyRange: 1000, UpdatePct: 100,
					OpsPerThread: 500, Seed: uint64(i) + 1,
					SMR: smr.Options{ReclaimEvery: pt.reclaim, EpochEvery: pt.epoch},
				})
				if err != nil {
					b.Fatal(err)
				}
				tp = res.Throughput
				peak = float64(res.Mem.PeakLive)
			}
			b.ReportMetric(tp, "simops/Mcyc")
			b.ReportMetric(peak, "peakNodes")
		})
	}
}

// BenchmarkExtHMList measures the Harris–Michael lock-free list — the
// paper's future-work extension implemented here — with the same axes as
// the figures.
func BenchmarkExtHMList(b *testing.B) { benchFigure(b, "hmlist", 1000) }

// BenchmarkExtSMT quantifies the paper's Section III SMT integration: 16
// hardware threads on dedicated cores versus 8 cores of 2-way SMT, where
// hyperthread sibling writes revoke sibling tags.
func BenchmarkExtSMT(b *testing.B) {
	for _, tpc := range []int{1, 2} {
		for _, scheme := range []string{"ca", "rcu"} {
			b.Run(fmt.Sprintf("%s/tpc=%d", scheme, tpc), func(b *testing.B) {
				p := cache.DefaultParams(16)
				p.ThreadsPerCore = tpc
				var tp float64
				for i := 0; i < b.N; i++ {
					res, err := bench.Run(bench.Workload{
						DS: "list", Scheme: scheme,
						Threads: 16, KeyRange: 1000, UpdatePct: 100,
						OpsPerThread: 400, Seed: uint64(i) + 1, Cache: p,
					})
					if err != nil {
						b.Fatal(err)
					}
					tp = res.Throughput
				}
				b.ReportMetric(tp, "simops/Mcyc")
			})
		}
	}
}

// BenchmarkExtZipf contrasts uniform and zipfian (theta .99) key skew on the
// hash table: skew concentrates contention on hot buckets, the regime where
// Conditional Access's early failure detection pays.
func BenchmarkExtZipf(b *testing.B) {
	for _, dist := range []string{"uniform", "zipf"} {
		for _, scheme := range []string{"ca", "rcu", "none"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, dist), func(b *testing.B) {
				var tp float64
				for i := 0; i < b.N; i++ {
					res, err := bench.Run(bench.Workload{
						DS: "hash", Scheme: scheme,
						Threads: 16, KeyRange: 1000, UpdatePct: 100,
						OpsPerThread: 400, Seed: uint64(i) + 1, Dist: dist,
					})
					if err != nil {
						b.Fatal(err)
					}
					tp = res.Throughput
				}
				b.ReportMetric(tp, "simops/Mcyc")
			})
		}
	}
}

// BenchmarkExtTailLatency reports p99.9 operation latency for CA versus a
// large-batch epoch scheme — the paper's Section I tail-latency critique of
// batching, as a regression-checkable number.
func BenchmarkExtTailLatency(b *testing.B) {
	cfgs := []struct {
		name    string
		scheme  string
		reclaim int
	}{
		{"ca", "ca", 0},
		{"rcu_batch400", "rcu", 400},
		{"rcu_batch30", "rcu", 30},
	}
	for _, cfg := range cfgs {
		b.Run(cfg.name, func(b *testing.B) {
			var p999 float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.Workload{
					DS: "list", Scheme: cfg.scheme,
					Threads: 8, KeyRange: 1000, UpdatePct: 100,
					OpsPerThread: 1500, Seed: uint64(i) + 1,
					SMR:           smr.Options{ReclaimEvery: cfg.reclaim},
					RecordLatency: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				p999 = float64(res.Latency.P999)
			}
			b.ReportMetric(p999, "p999cycles")
		})
	}
}
