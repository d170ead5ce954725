package bench

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEngineTagIsStable(t *testing.T) {
	a, b := EngineTag(), EngineTag()
	if a != b {
		t.Fatalf("engine tag not deterministic: %q vs %q", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("engine tag %q has length %d, want 16", a, len(a))
	}
}

func TestTrialSpecBytesCanonical(t *testing.T) {
	w := goldenWorkload("list", "ca")
	a, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same workload serialized differently twice")
	}
	w.Seed++
	c, err := TrialSpecBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("seed change invisible in the canonical spec")
	}
}

// TestScenarioSpecCarriesLegacyFlag: the Workload lowering's historical
// queue-read pair changes the executed op stream, so the canonical scenario
// spec must distinguish a lowered workload from the identical declarative
// scenario.
func TestScenarioSpecCarriesLegacyFlag(t *testing.T) {
	lowered := lowerWorkload(goldenWorkload("queue", "ca"))
	if !lowered.Spec().LegacyQueueRead {
		t.Fatal("lowered workload spec lost the legacy queue-read flag")
	}
	declarative := lowered
	declarative.legacyQueueRead = false
	a, err := ScenarioSpecBytes(lowered)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScenarioSpecBytes(declarative)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("legacy flag invisible in the canonical spec: lowered and declarative trials would collide")
	}
}

func TestEffectiveBuckets(t *testing.T) {
	for _, tc := range []struct {
		ds      string
		in, out int
	}{
		{"list", 128, 0}, // inert outside the hash table
		{"list", 0, 0},
		{"bst", 64, 0},
		{"hash", 0, 128}, // unset means the default geometry
		{"hash", 128, 128},
		{"hash", 64, 64},
	} {
		if got := EffectiveBuckets(tc.ds, tc.in); got != tc.out {
			t.Errorf("EffectiveBuckets(%s, %d) = %d, want %d", tc.ds, tc.in, got, tc.out)
		}
	}
}

// memStore is an in-memory TrialStore for harness-side integration tests.
// It keys entries by canonical spec, one map per kind, and is instrumented
// to observe how the Runner drives it: it memoizes a synthetic key on the
// PreparedSpec at lookup and records the key it sees again at put time.
type memStore struct {
	mu        sync.Mutex
	trials    map[string]Result
	scenarios map[string]ScenarioResult
	lookups   int
	puts      int
	putSawKey string
}

func newMemStore() *memStore {
	return &memStore{trials: map[string]Result{}, scenarios: map[string]ScenarioResult{}}
}

func (m *memStore) Lookup(kind string, ps *PreparedSpec, out any) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	if ps.Key == "" {
		ps.Key = "memo:" + kind
	}
	switch kind {
	case KindTrial:
		res, ok := m.trials[string(ps.Spec)]
		*out.(*Result) = res
		return ok
	case KindScenario:
		res, ok := m.scenarios[string(ps.Spec)]
		*out.(*ScenarioResult) = res
		return ok
	}
	return false
}

func (m *memStore) Put(kind string, ps *PreparedSpec, res any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.putSawKey = ps.Key
	switch kind {
	case KindTrial:
		m.trials[string(ps.Spec)] = res.(Result)
	case KindScenario:
		m.scenarios[string(ps.Spec)] = res.(ScenarioResult)
	}
	return nil
}

// specKey returns the canonical spec string memStore indexes by.
func specKey(b []byte, err error) string {
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestKeyedFastPathMemoizesAcrossLookupAndStore: the key a store memoized
// on the PreparedSpec at lookup must arrive intact at the write-through, on
// both the stationary and scenario paths, and a warm re-run is one lookup
// and no put.
func TestKeyedFastPathMemoizesAcrossLookupAndStore(t *testing.T) {
	st := newMemStore()
	r := Runner{Store: st}
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.lookups != 1 || st.puts != 1 {
		t.Fatalf("store traffic %d lookups / %d puts, want 1/1", st.lookups, st.puts)
	}
	if st.putSawKey != "memo:"+KindTrial {
		t.Fatalf("write-through saw key %q; the lookup's memo was lost", st.putSawKey)
	}

	// Warm re-run: one lookup, no put.
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.lookups != 2 || st.puts != 1 {
		t.Fatalf("warm store traffic %d lookups / %d puts, want 2/1", st.lookups, st.puts)
	}

	// Scenario path mirrors the stationary one.
	st.putSawKey = ""
	if _, err := r.RunScenario(lowerWorkload(goldenWorkload("queue", "ca"))); err != nil {
		t.Fatal(err)
	}
	if st.putSawKey != "memo:"+KindScenario {
		t.Fatalf("scenario write-through saw key %q; the lookup's memo was lost", st.putSawKey)
	}
}

// TestRunDoesNotDoubleCache: the stationary path keys on the Workload alone;
// it must not also record the lowered scenario under a second key.
func TestRunDoesNotDoubleCache(t *testing.T) {
	st := newMemStore()
	r := Runner{Store: st}
	if _, err := r.Run(goldenWorkload("list", "ca")); err != nil {
		t.Fatal(err)
	}
	if st.puts != 1 || len(st.trials) != 1 || len(st.scenarios) != 0 {
		t.Fatalf("one trial produced %d puts (%d trial / %d scenario entries), want exactly 1 trial entry",
			st.puts, len(st.trials), len(st.scenarios))
	}
}

// TestSweepStoreHitSkipsSimulation: a poisoned store entry must be returned
// verbatim — proof the simulator never ran for a warm cell.
func TestSweepStoreHitSkipsSimulation(t *testing.T) {
	st := newMemStore()
	cfg := SweepConfig{
		DS: "list", Schemes: []string{"ca"}, Threads: []int{2}, Updates: []int{50},
		KeyRange: 32, Ops: 40, Seed: 1, Store: st,
	}
	cold, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the cached result; a warm sweep must return the poison.
	w := trialWorkload(cfg, pointSpec{Scheme: "ca", Threads: 2, UpdatePct: 50}, 0)
	poisoned := st.trials[specKey(TrialSpecBytes(w))]
	poisoned.Throughput = 123456789
	st.trials[specKey(TrialSpecBytes(w))] = poisoned
	warm, err := Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Throughput != 123456789 {
		t.Fatalf("warm sweep re-simulated instead of serving the store: throughput %v (cold %v)",
			warm[0].Throughput, cold[0].Throughput)
	}
}

// TestUnencodableSpecFailsBeforeSimulating: with a store attached, a spec
// that does not marshal has no content key. The Runner reports it before
// touching the store or simulating, instead of simulating a result it
// cannot store.
func TestUnencodableSpecFailsBeforeSimulating(t *testing.T) {
	st := newMemStore()
	r := Runner{Store: st}
	sw := scenarioGoldenCells()[0]
	sw.Scenario.Phases[0].KeyShift = math.NaN() // JSON has no NaN
	if _, err := r.RunScenario(sw); err == nil || !strings.Contains(err.Error(), "encoding spec") {
		t.Fatalf("err = %v, want a spec-encoding error", err)
	}
	if st.lookups != 0 || st.puts != 0 {
		t.Fatalf("store traffic %d lookups / %d puts, want none", st.lookups, st.puts)
	}
}
