package lab

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"condaccess/internal/bench"
	"condaccess/internal/scenario"
)

func testSweepConfig(store bench.TrialStore) bench.SweepConfig {
	return bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"},
		Threads: []int{1, 2}, Updates: []int{0, 100},
		KeyRange: 64, Ops: 120, Seed: 11, Trials: 2,
		Store: store,
	}
}

// TestWarmSweepByteIdentical is the subsystem's acceptance test: a sweep
// re-run against a warm store must execute zero simulator trials (no store
// misses, no store puts) and reproduce the cold run's points, table, and CSV
// byte for byte.
func TestWarmSweepByteIdentical(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSweepConfig(st)
	cold, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	jobs := uint64(2 * 2 * 2 * cfg.Trials) // schemes x threads x updates x trials
	if stats.Hits != 0 || stats.Misses != jobs || stats.Puts != jobs {
		t.Fatalf("cold run traffic %+v, want 0 hits / %d misses / %d puts", stats, jobs, jobs)
	}

	warm, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats = st.Stats()
	if stats.Hits != jobs || stats.Misses != jobs || stats.Puts != jobs {
		t.Fatalf("warm run traffic %+v, want %d hits and no new misses/puts (zero trials simulated)", stats, jobs)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm points diverge from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	for _, u := range cfg.Updates {
		if a, b := bench.FormatTable(cold, u), bench.FormatTable(warm, u); a != b {
			t.Fatalf("u=%d: warm table not byte-identical:\ncold:\n%s\nwarm:\n%s", u, a, b)
		}
	}
	var coldCSV, warmCSV strings.Builder
	if err := bench.WriteCSV(&coldCSV, cfg.DS, cold); err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteCSV(&warmCSV, cfg.DS, warm); err != nil {
		t.Fatal(err)
	}
	if coldCSV.String() != warmCSV.String() {
		t.Fatal("warm CSV not byte-identical to cold CSV")
	}
}

// TestWarmSweepParallelPath: the pool path must hit the same store entries
// the sequential path wrote, and reproduce its points exactly.
func TestWarmSweepParallelPath(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSweepConfig(st)
	cold, err := bench.Sweep(cfg, nil) // sequential cold fill
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Workers = runtime.GOMAXPROCS(0)
	warm, err := bench.Sweep(par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Puts != got.Misses || got.Hits == 0 {
		t.Fatalf("parallel warm run traffic %+v, want pure hits", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("parallel warm points diverge from sequential cold points")
	}
}

// TestScenarioWarmRun: RunScenario must round-trip a full ScenarioResult —
// per-phase segments, prefill, latency percentiles — through the store.
func TestScenarioWarmRun(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("read-burst")
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "ca", Threads: 4, KeyRange: 128, Seed: 7,
		RecordLatency: true, Scenario: sc,
	}
	r := bench.Runner{Store: st}
	cold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm scenario result diverges:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 || got.Puts != 1 {
		t.Fatalf("scenario traffic %+v, want 1 hit / 1 miss / 1 put", got)
	}
}

// TestTimelineWarmRoundTrip: the windowed timeline travels through the
// store envelope losslessly — a warm hit's timeline is deeply equal to the
// simulated one and re-marshals to identical bytes, on both the stationary
// and scenario paths.
func TestTimelineWarmRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, UpdatePct: 100,
		OpsPerThread: 150, Seed: 5, RecordTimeline: true, TimelineWindow: 8192,
	}
	r := bench.Runner{Store: st}
	cold, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Hits != 1 {
		t.Fatalf("store traffic %+v, want exactly one hit", got)
	}
	if warm.Timeline == nil || !reflect.DeepEqual(cold.Timeline, warm.Timeline) {
		t.Fatalf("warm timeline diverges:\ncold: %+v\nwarm: %+v", cold.Timeline, warm.Timeline)
	}
	cb, err := json.Marshal(cold.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(warm.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(wb) {
		t.Fatalf("warm timeline bytes diverge:\ncold: %s\nwarm: %s", cb, wb)
	}

	sc, err := scenario.Preset(scenario.PresetChurnDrain)
	if err != nil {
		t.Fatal(err)
	}
	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 64, Seed: 5,
		RecordTimeline: true, Scenario: sc,
	}
	scold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if swarm.Timeline == nil || !reflect.DeepEqual(scold.Timeline, swarm.Timeline) {
		t.Fatal("warm scenario trial timeline diverges")
	}
	if len(swarm.Phases) != len(scold.Phases) {
		t.Fatal("phase count diverges")
	}
	for i := range scold.Phases {
		if !reflect.DeepEqual(scold.Phases[i].Timeline, swarm.Phases[i].Timeline) {
			t.Errorf("phase %s timeline diverges", scold.Phases[i].Name)
		}
	}
}

// TestRunManyWarm: the workload-list pool must be cacheable too.
func TestRunManyWarm(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws := []bench.Workload{
		{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1},
		{DS: "stack", Scheme: "none", Threads: 1, KeyRange: 32, UpdatePct: 100, OpsPerThread: 60, Seed: 2},
	}
	cold, err := bench.RunMany(ws, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := bench.RunMany(ws, 1, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm RunMany results diverge from cold")
	}
	if got := st.Stats(); got.Hits != 2 || got.Puts != 2 {
		t.Fatalf("RunMany traffic %+v, want 2 hits / 2 puts", got)
	}
}

// TestSpecsKeySeparately: any spec difference — even just the seed — must
// address a different entry.
func TestSpecsKeySeparately(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	if _, err := r.Run(w); err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Seed++
	if _, ok := lookupTrial(st, w2); ok {
		t.Fatal("seed change still hit the original entry")
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	if entries[0].Kind != bench.KindTrial || entries[0].Workload.Seed != 1 {
		t.Fatalf("decoded entry mismatch: %+v", entries[0])
	}
}

// lookupTrial and putTrial drive a store's TrialStore contract for one
// stationary trial, the way bench.Runner does.
func lookupTrial(st *Store, w bench.Workload) (bench.Result, bool) {
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		panic(err)
	}
	var res bench.Result
	ok := st.Lookup(bench.KindTrial, &bench.PreparedSpec{Spec: spec}, &res)
	return res, ok
}

func putTrial(st *Store, w bench.Workload, res bench.Result) error {
	spec, err := bench.TrialSpecBytes(w)
	if err != nil {
		return err
	}
	return st.Put(bench.KindTrial, &bench.PreparedSpec{Spec: spec}, res)
}

// TestCorruptionIsAMissAndVerifyReportsIt: a payload whose result no longer
// matches its fingerprint — reframed with a valid CRC, so only the envelope
// check can catch it — must be a miss, and Verify must name the defect.
// Re-running heals the entry, and GC compacts the bad record away.
func TestCorruptionIsAMissAndVerifyReportsIt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	res, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOn(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segment files = %d, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	k, payload, err := parseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	// Rename a result field without breaking the JSON or the frame length.
	corrupt := strings.Replace(string(payload), `"result":{"W":{"DS"`, `"result":{"X":{"DS"`, 1)
	if corrupt == string(payload) {
		t.Fatal("corruption did not apply; envelope layout changed?")
	}
	framed, err := frameRecord(nil, k, []byte(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], framed, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := lookupTrial(st, w); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	sound, problems, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != 0 || len(problems) != 1 {
		t.Fatalf("verify: %d sound, %d problems; want 0/1", sound, len(problems))
	}
	if !strings.Contains(problems[0].Reason, "fingerprint") {
		t.Fatalf("problem reason %q does not name the fingerprint", problems[0].Reason)
	}

	// Re-running repairs the entry: the fresh record supersedes the bad one.
	r = bench.Runner{Store: st}
	repaired, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, repaired) {
		t.Fatal("repaired result diverges from original")
	}
	if _, ok := lookupTrial(st, w); !ok {
		t.Fatal("repaired entry not served")
	}
	if removed, kept, err := st.GC(false); err != nil || removed != 0 || kept != 1 {
		t.Fatalf("gc: removed %d kept %d (err %v), want 0/1", removed, kept, err)
	}
	if sound, problems, _ = st.Verify(); sound != 1 || len(problems) != 0 {
		t.Fatalf("after repair and gc: %d sound, %d problems; want 1/0", sound, len(problems))
	}
}

// TestGCRemovesForeignTags: entries written under another engine tag are
// unreachable and must be collected; current-tag entries stay.
func TestGCRemovesForeignTags(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	res, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	// A second handle pinned to a stale engine tag writes a foreign entry.
	old, err := openTagged(dir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := putTrial(old, w, res); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if keys, err := st.Keys(); err != nil || len(keys) != 2 {
		t.Fatalf("keys = %v (err %v); the foreign-tag entry must land under its own key", keys, err)
	}

	removed, kept, err := st.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || kept != 1 {
		t.Fatalf("gc removed %d kept %d, want 1/1", removed, kept)
	}
	if _, ok := lookupTrial(st, w); !ok {
		t.Fatal("gc removed the current-tag entry")
	}

	removed, kept, err = st.GC(true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || kept != 0 {
		t.Fatalf("gc -all removed %d kept %d, want 1/0", removed, kept)
	}
}

// TestOpenExisting: read-only consumers must fail loudly on a mistyped
// path instead of materializing an empty store there.
func TestOpenExisting(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nosuchstore")
	if _, err := OpenExisting(missing); err == nil {
		t.Fatal("nonexistent store opened")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("OpenExisting materialized the missing store")
	}
	if _, err := Open(missing); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExisting(missing); err != nil {
		t.Fatalf("existing store refused: %v", err)
	}
}

// TestEngineTagScopesLookups: a handle with a different tag must not see
// entries written under the current tag.
func TestEngineTagScopesLookups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{DS: "list", Scheme: "ca", Threads: 2, KeyRange: 32, UpdatePct: 50, OpsPerThread: 60, Seed: 1}
	r := bench.Runner{Store: st}
	if _, err := r.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	other, err := openTagged(dir, "ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupTrial(other, w); ok {
		t.Fatal("entry visible across engine tags")
	}
}

// TestTailSurvivesStoreEnvelope: the tail-latency histograms (per-kind and
// per-attribution partitions, pause distribution, sparse bucket arrays)
// round-trip through the serialized envelope exactly, on both the stationary
// and scenario paths — a warm hit reproduces the cold run's whole Tail.
func TestTailSurvivesStoreEnvelope(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	w := bench.Workload{
		DS: "list", Scheme: "rcu", Threads: 4, KeyRange: 64,
		UpdatePct: 100, OpsPerThread: 300, Seed: 9, RecordLatency: true,
	}
	cold, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Tail == nil || cold.Tail.Pause.Count() == 0 {
		t.Fatal("cold rcu run recorded no reclamation pauses; workload too small to exercise the envelope")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result (incl. Tail) diverges from cold")
	}

	sw := bench.ScenarioWorkload{
		DS: "list", Scheme: "hp", Threads: 4, KeyRange: 64, Seed: 9,
		RecordLatency: true,
		Scenario: scenario.Scenario{
			Name: "tail-envelope",
			Phases: []scenario.Phase{
				{Name: "churn", Ops: 200, Weights: scenario.Weights{Insert: 50, Delete: 50}},
				{Name: "read", Ops: 100, Weights: scenario.Weights{Read: 1}},
			},
		},
	}
	scold, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := r.RunScenario(sw)
	if err != nil {
		t.Fatal(err)
	}
	if scold.Tail == nil || scold.Phases[0].Tail == nil {
		t.Fatal("scenario cold run carries no tail records")
	}
	if !reflect.DeepEqual(scold, swarm) {
		t.Fatalf("warm scenario result (incl. per-phase Tails) diverges from cold")
	}
}

// TestLookupAllocBudget pins the work of one warm hit as a deterministic
// count: allocations per Store.Lookup of a stored trial read back from its
// segment, once without a tail and once with the eight tail histograms.
// A hit is one strict decode of the envelope straight into the result; a
// second decode of the result or of each histogram overruns the budget.
// At the two-decode read path these were 28 and 146.
func TestLookupAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tail   bool
		budget float64
	}{
		{"no tail", false, 24},
		{"tail", true, 33},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := bench.Workload{
				DS: "list", Scheme: "rcu", Threads: 2, KeyRange: 32,
				UpdatePct: 50, OpsPerThread: 40, Seed: 1, RecordTail: tc.tail,
			}
			st := openStore(t, dir)
			want, err := (&bench.Runner{Store: st}).Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openStore(t, dir)
			defer st.Close()
			spec, err := bench.TrialSpecBytes(w)
			if err != nil {
				t.Fatal(err)
			}
			ps := &bench.PreparedSpec{Spec: spec}
			var res bench.Result
			allocs := testing.AllocsPerRun(50, func() {
				res = bench.Result{}
				if !st.Lookup(bench.KindTrial, ps, &res) {
					t.Fatal("stored trial missed")
				}
			})
			if !reflect.DeepEqual(res, want) {
				t.Fatal("hit diverges from the stored result")
			}
			if allocs > tc.budget {
				t.Fatalf("a warm hit allocates %v times, budget %v", allocs, tc.budget)
			}
		})
	}
}

// TestLookupDecodeIsStrict: with the fingerprint off the hot path, the
// one decode a hit makes is what rejects a well-framed but wrong envelope.
// Unknown fields at any depth, trailing bytes, another tag or kind, and a
// null result are misses; the sound envelope decodes to its result.
func TestLookupDecodeIsStrict(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := bench.Result{W: trialW(1), Ops: 7, Throughput: 1.5}
	res, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	sound, err := json.Marshal(envelope{
		Tag: st.Tag(), Kind: bench.KindTrial, Spec: json.RawMessage(`{"DS":"list"}`),
		Sum: payloadSum(res), Result: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bench.Result
	if !st.decodeHit(sound, bench.KindTrial, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("sound envelope: decoded %+v", got)
	}
	edit := func(old, new string) string {
		t.Helper()
		s := strings.Replace(string(sound), old, new, 1)
		if s == string(sound) {
			t.Fatalf("edit %q did not apply", old)
		}
		return s
	}
	for name, payload := range map[string]string{
		"trailing bytes":       string(sound) + "{}",
		"trailing garbage":     string(sound) + "x",
		"unknown field":        edit(`{"tag"`, `{"extra":1,"tag"`),
		"unknown nested field": edit(`"Ops":7`, `"Opz":7`),
		"other kind":           edit(`"kind":"trial"`, `"kind":"scenario"`),
		"other tag":            edit(`"tag":"`+st.Tag(), `"tag":"x`+st.Tag()[1:]),
		"null result":          edit(`"result":`+string(res), `"result":null`),
	} {
		if st.decodeHit([]byte(payload), bench.KindTrial, new(bench.Result)) {
			t.Errorf("%s: %s decoded as a hit", name, payload)
		}
	}
}

// FuzzDecodeHit feeds the hit decoder arbitrary envelope payloads. It must
// never panic, and whatever it accepts as a hit must be a sound envelope of
// this store's tag and kind whose result equals the reference: a plain
// json.Unmarshal of the envelope with its result field pointing at a fresh
// Result. The strict decoder, the skipped fields and the trailing-bytes
// check may turn a payload into a miss, but never change what a hit holds.
func FuzzDecodeHit(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	w := trialW(1)
	w.RecordLatency, w.RecordTimeline = true, true
	res, err := bench.Run(w)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []bench.Result{res, {W: trialW(2), Ops: 7, Throughput: 1.5}} {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		env, err := json.Marshal(envelope{
			Tag: st.Tag(), Kind: bench.KindTrial, Spec: json.RawMessage(`{"DS":"list"}`),
			Sum: payloadSum(payload), Result: payload,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2])
	}
	head := `{"tag":"` + st.Tag() + `","kind":"trial",`
	f.Add([]byte(head + `"result":{"Ops":1}}`))
	f.Add([]byte(head + `"result":null}`))
	// A repeated result member decodes into the one value, member by member.
	f.Add([]byte(head + `"result":{"Ops":1},"Result":{"Cycles":2}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got bench.Result
		if !st.decodeHit(data, bench.KindTrial, &got) {
			return
		}
		var want bench.Result
		ref := struct {
			Tag    string        `json:"tag"`
			Kind   string        `json:"kind"`
			Result *bench.Result `json:"result"`
		}{Result: &want}
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("hit on a payload encoding/json rejects: %v\n%q", err, data)
		}
		if ref.Tag != st.Tag() || ref.Kind != bench.KindTrial || ref.Result != &want {
			t.Fatalf("hit on tag %q kind %q result %p\n%q", ref.Tag, ref.Kind, ref.Result, data)
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			r, _ := json.Marshal(want)
			t.Fatalf("hit decodes to\n%s\nreference\n%s\npayload %q", g, r, data)
		}
	})
}
