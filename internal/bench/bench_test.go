package bench

import (
	"reflect"
	"testing"
)

func TestRunAllPairsSmoke(t *testing.T) {
	for _, ds := range Structures() {
		for _, scheme := range Schemes() {
			t.Run(ds+"/"+scheme, func(t *testing.T) {
				res, err := Run(Workload{
					DS: ds, Scheme: scheme,
					Threads: 4, KeyRange: 64, UpdatePct: 50,
					OpsPerThread: 200, Seed: 42, Check: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != 800 || res.Cycles == 0 || res.Throughput <= 0 {
					t.Fatalf("implausible result: %+v", res)
				}
			})
		}
	}
}

func TestRunRejectsBadWorkloads(t *testing.T) {
	bad := []Workload{
		{DS: "list", Scheme: "ca", Threads: 0, KeyRange: 10, OpsPerThread: 1},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 0, OpsPerThread: 1},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 0},
		{DS: "list", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 1, UpdatePct: 150},
		{DS: "wat", Scheme: "ca", Threads: 1, KeyRange: 10, OpsPerThread: 1},
		{DS: "list", Scheme: "wat", Threads: 1, KeyRange: 10, OpsPerThread: 1},
	}
	for i, w := range bad {
		if _, err := Run(w); err == nil {
			t.Errorf("workload %d accepted, want error", i)
		}
	}
}

func TestFootprintSampling(t *testing.T) {
	res, err := Run(Workload{
		DS: "list", Scheme: "ca",
		Threads: 2, KeyRange: 64, UpdatePct: 100,
		OpsPerThread: 500, Seed: 7, Check: true, FootprintEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Footprint) < 5 {
		t.Fatalf("footprint samples = %d, want >= 5", len(res.Footprint))
	}
	// CA keeps the footprint at the live set: every sample should be within
	// a small band around the 50% prefill size.
	for _, s := range res.Footprint {
		if s.Live > uint64(res.PrefillSize)*2 {
			t.Fatalf("CA footprint ballooned: %d live after %d ops (prefill %d)",
				s.Live, s.AfterOps, res.PrefillSize)
		}
	}
}

// TestFig3WorkloadIsThePapers pins Figure 3's configuration: the lazy list
// at 16 threads over 1000 keys, 100% updates, sampled every 1000 ops.
func TestFig3WorkloadIsThePapers(t *testing.T) {
	want := Workload{
		DS: "list", Scheme: "rcu",
		Threads: 16, KeyRange: 1000, UpdatePct: 100,
		OpsPerThread: 5000, Seed: 3, Check: true, FootprintEvery: 1000,
	}
	if got := Fig3Workload("rcu", 5000, 3, true); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig3Workload = %+v, want %+v", got, want)
	}
}

func TestDeterministicResults(t *testing.T) {
	w := Workload{
		DS: "bst", Scheme: "ibr",
		Threads: 4, KeyRange: 128, UpdatePct: 20,
		OpsPerThread: 300, Seed: 99, Check: true,
	}
	r1, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Retries != r2.Retries || r1.Mem != r2.Mem {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}
