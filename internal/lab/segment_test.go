package lab

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"condaccess/internal/bench"
)

// trialW builds a cheap stationary workload distinguished only by seed.
func trialW(seed uint64) bench.Workload {
	return bench.Workload{
		DS: "list", Scheme: "ca", Threads: 1, KeyRange: 16,
		UpdatePct: 50, OpsPerThread: 30, Seed: seed,
	}
}

// TestStoreStatsString: the traffic line must say "no traffic" when the
// handle served no lookups — "0% warm" would read as a fully cold run to the
// CI greps — and keep the exact hit/miss format otherwise.
func TestStoreStatsString(t *testing.T) {
	cases := []struct {
		s    StoreStats
		want string
	}{
		{StoreStats{}, "store: no traffic"},
		{StoreStats{Puts: 3, Opens: 7}, "store: no traffic"}, // puts/opens alone are not lookups
		{StoreStats{Hits: 8}, "store: 8 hits, 0 misses (100% warm)"},
		{StoreStats{Misses: 8}, "store: 0 hits, 8 misses (0% warm)"},
		{StoreStats{Hits: 3, Misses: 1}, "store: 3 hits, 1 misses (75% warm)"},
		// The flush suffix appears only when flush traffic happened, so warm
		// runs (and their CI greps) keep the bare line.
		{StoreStats{Hits: 1, Misses: 7, Flushes: 2, BytesWritten: 4096},
			"store: 1 hits, 7 misses (12% warm), 2 flushes (4.0 KiB written)"},
		{StoreStats{Misses: 3, BytesWritten: 100}, "store: 0 hits, 3 misses (0% warm), 0 flushes (100 B written)"},
		{StoreStats{Misses: 2, Flushes: 1, BytesWritten: 3 << 20},
			"store: 0 hits, 2 misses (0% warm), 1 flushes (3.0 MiB written)"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

// TestTruncatedTailRecovers simulates a crash mid-flush: every segment loses
// its final byte. The truncated tail record must be ignored (not served, not
// fatal), its lookups must miss, re-running must heal the store in place,
// and GC must drop the crash residue for good.
func TestTruncatedTailRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6
	r := bench.Runner{Store: st}
	var want []bench.Result
	for seed := uint64(1); seed <= trials; seed++ {
		res, err := r.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop one byte off every segment: each loses exactly its tail record.
	segs, err := st.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	for _, seg := range segs {
		path := st.segmentPath(seg)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-1); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st2.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != trials-len(segs) {
		t.Fatalf("entries after truncation = %d, want %d (one lost per segment)", len(entries), trials-len(segs))
	}
	if _, problems, err := st2.Verify(); err != nil || len(problems) != len(segs) {
		t.Fatalf("verify: %d problems (err %v), want one truncated-tail report per segment", len(problems), err)
	}

	// Healing: re-running misses exactly the lost trials and re-appends them.
	r2 := bench.Runner{Store: st2}
	for seed := uint64(1); seed <= trials; seed++ {
		res, err := r2.Run(trialW(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want[seed-1]) {
			t.Fatalf("seed %d: healed result diverges from original", seed)
		}
	}
	stats := st2.Stats()
	if stats.Misses != uint64(len(segs)) || stats.Hits != trials-uint64(len(segs)) {
		t.Fatalf("heal traffic %+v, want %d misses / %d hits", stats, len(segs), trials-len(segs))
	}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, ok := lookupTrial(st2, trialW(seed)); !ok {
			t.Fatalf("seed %d still missing after heal", seed)
		}
	}

	// GC compacts away the garbage tails; the store verifies clean.
	if removed, kept, err := st2.GC(false); err != nil || removed != 0 || kept != trials {
		t.Fatalf("gc: removed %d kept %d (err %v), want 0/%d", removed, kept, err, trials)
	}
	sound, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != trials || len(problems) != 0 {
		t.Fatalf("after gc: %d sound, %d problems, want %d/0", sound, len(problems), trials)
	}
}

// TestCorruptTailChecksumIgnored: a bit flipped in a segment's final record
// must fail the CRC — the scan stops there, the record's lookups miss, and
// re-running heals. The sidecar is removed first so the reopen takes the
// full-scan path the checksum protects.
func TestCorruptTailChecksumIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 3
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := st.listSegments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (err %v)", segs, err)
	}
	path := st.segmentPath(segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "segments", "index.json")); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st2.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != trials-1 {
		t.Fatalf("entries after corruption = %d, want %d", len(entries), trials-1)
	}
	_, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Reason, "tail") {
		t.Fatalf("verify problems = %+v, want one corrupt-tail report", problems)
	}

	r2 := bench.Runner{Store: st2}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r2.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st2.Stats(); got.Misses != 1 || got.Hits != trials-1 {
		t.Fatalf("heal traffic %+v, want 1 miss / %d hits", got, trials-1)
	}
}

// TestConcurrentKeyedAppendsAndReads drives the striped write-back and the
// keyed lookup path from many goroutines at once — the parallel-sweep shape,
// checked under -race: writers must see their own unflushed puts, and a
// concurrent reader probing the same keyspace must never tear.
func TestConcurrentKeyedAppendsAndReads(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	spec := func(g, i int) []byte {
		b, err := json.Marshal(map[string]int{"worker": g, "trial": i})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent keyed reader over the whole keyspace
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for g := 0; g < workers; g++ {
				for i := 0; i < per; i++ {
					ps := &bench.PreparedSpec{Spec: spec(g, i)}
					var res bench.Result
					if ok := st.Lookup(bench.KindTrial, ps, &res); ok && res.Throughput != float64(g*per+i) {
						t.Errorf("worker %d trial %d: read tore: %+v", g, i, res)
						return
					}
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < workers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				ps := &bench.PreparedSpec{Spec: spec(g, i)}
				want := bench.Result{Throughput: float64(g*per + i)}
				if err := st.Put(bench.KindTrial, ps, want); err != nil {
					t.Error(err)
					return
				}
				// The writing handle must see its own put immediately, even
				// while it is still buffered.
				var got bench.Result
				if ok := st.Lookup(bench.KindTrial, ps, &got); !ok || got.Throughput != want.Throughput {
					t.Errorf("worker %d trial %d: own put invisible (ok=%v)", g, i, ok)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Puts != workers*per {
		t.Fatalf("puts = %d, want %d", got.Puts, workers*per)
	}
}

// TestWarmPackedSweepOpensNoFiles is the perf acceptance shape: a 540-trial
// sweep re-run against a packed store must serve every trial from the index
// without opening a single file past the handful Open itself touched — and
// reproduce the cold run's table byte for byte.
func TestWarmPackedSweepOpensNoFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.SweepConfig{
		DS: "list", Schemes: []string{"ca", "rcu"}, Threads: []int{1, 2},
		Updates: []int{0, 50, 100}, KeyRange: 16, Ops: 20, Seed: 3, Trials: 45,
		Store: st,
	}
	const jobs = 2 * 2 * 3 * 45 // 540
	cold, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st2
	base := st2.Stats().Opens // sidecar + segments, paid once at Open
	warm, err := bench.Sweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.Hits != jobs || stats.Misses != 0 {
		t.Fatalf("warm traffic %+v, want %d pure hits", stats, jobs)
	}
	if stats.Opens != base {
		t.Fatalf("warm sweep opened %d files beyond the %d at Open; packed lookups must be pure ReadAt", stats.Opens-base, base)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm packed sweep diverges from cold")
	}
	for _, u := range cfg.Updates {
		if a, b := bench.FormatTable(cold, u), bench.FormatTable(warm, u); a != b {
			t.Fatalf("u=%d: warm table not byte-identical", u)
		}
	}
	if n := len(segmentsOn(t, dir)); n > writeStripes {
		t.Fatalf("cold 540-trial run left %d segments, want at most %d stripes", n, writeStripes)
	}
}

// segmentsOn lists segment files under dir.
func segmentsOn(t testing.TB, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "segments", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRebuildIndexMatchesScan: RebuildIndex from segment bytes alone must
// reconstruct exactly the entries a fresh full scan sees.
func TestRebuildIndexMatchesScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 10
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Poison the sidecar; RebuildIndex must not need it.
	side := filepath.Join(dir, "segments", "index.json")
	if err := os.WriteFile(side, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, segments, err := st2.RebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if entries != trials || segments == 0 {
		t.Fatalf("rebuild: %d entries / %d segments, want %d entries", entries, segments, trials)
	}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, ok := lookupTrial(st2, trialW(seed)); !ok {
			t.Fatalf("seed %d unreachable after rebuild", seed)
		}
	}
	// The rewritten sidecar must make the next Open cheap and complete.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	es, err := st3.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != trials {
		t.Fatalf("after rebuild+reopen: %d entries, want %d", len(es), trials)
	}
}

// TestMixedLayoutLookupAndGC: a store directory that still holds a loose
// objects/ tree from a pre-pack binary is served from its segments alone.
// The leftover tree is ignored — never served, never counted by GC or
// Verify, never touched — while GC still collects foreign-tag records.
func TestMixedLayoutLookupAndGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	if _, err := r.Run(trialW(2)); err != nil {
		t.Fatal(err)
	}
	// A loose entry for trialW(1), shaped as a pre-pack binary wrote it.
	spec, err := bench.TrialSpecBytes(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	k := key(st.Tag(), bench.KindTrial, spec)
	result := []byte(`{"Throughput":1}`)
	env, err := json.Marshal(envelope{Tag: st.Tag(), Kind: bench.KindTrial, Spec: spec, Sum: payloadSum(result), Result: result})
	if err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, "objects", k[:2], k+".json")
	if err := os.MkdirAll(filepath.Dir(leftover), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leftover, env, 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign-tag record, to be collected.
	old, err := openTagged(dir, "0000deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := putTrial(old, trialW(3), bench.Result{}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	if _, ok := lookupTrial(st, trialW(1)); ok {
		t.Fatal("loose leftover served as a hit")
	}
	if sound, problems, err := st.Verify(); err != nil || sound != 2 || len(problems) != 0 {
		t.Fatalf("verify: %d sound, %v problems (err %v), want 2 segment records and no problems", sound, problems, err)
	}
	removed, kept, err := st.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || kept != 1 {
		t.Fatalf("gc removed %d kept %d, want 1/1 (foreign record gone, loose tree not counted)", removed, kept)
	}
	if _, ok := lookupTrial(st, trialW(2)); !ok {
		t.Fatal("current-tag record lost after gc")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(leftover); err != nil || string(got) != string(env) {
		t.Fatalf("leftover loose entry touched (err %v)", err)
	}
}

// TestSwappedSidecarEntriesMiss: a stale or tampered sidecar that points one
// key at another key's record must not serve the other key's result. The
// lookup misses, the trial re-simulates, and the write-through heals the
// index.
func TestSwappedSidecarEntriesMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		if err := putTrial(st, trialW(seed), bench.Result{Throughput: float64(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	keyOf := func(w bench.Workload) string {
		spec, err := bench.TrialSpecBytes(w)
		if err != nil {
			t.Fatal(err)
		}
		return key(st.Tag(), bench.KindTrial, spec)
	}
	k1, k2 := keyOf(trialW(1)), keyOf(trialW(2))
	side := filepath.Join(dir, "segments", "index.json")
	data, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	var sc sidecar
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	sc.Entries[k1], sc.Entries[k2] = sc.Entries[k2], sc.Entries[k1]
	if data, err = json.Marshal(sc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res, ok := lookupTrial(st2, trialW(1)); ok {
		t.Fatalf("swapped sidecar served trial 1 as a hit with throughput %v", res.Throughput)
	}
	// The Runner's miss path re-simulates and the put repoints the index.
	r := bench.Runner{Store: st2}
	want, err := r.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := lookupTrial(st2, trialW(1)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("trial 1 not healed (ok=%v)", ok)
	}
}

// TestCorruptSidecarLengthMisses: the sidecar is advisory, so an entry
// whose record length no frame can have must not reach readRecord's
// allocation. A negative length or one past 2^62 used to panic every
// lookup; one of 2^29 allocated 512 MiB per hit. Each must be a miss that
// re-simulates and heals the index.
func TestCorruptSidecarLengthMisses(t *testing.T) {
	for _, n := range []int64{-1, 1 << 62, 1 << 29} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&bench.Runner{Store: st}).Run(trialW(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			side := filepath.Join(dir, "segments", "index.json")
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			var sc sidecar
			if err := json.Unmarshal(data, &sc); err != nil {
				t.Fatal(err)
			}
			for k, e := range sc.Entries {
				sc.Entries[k] = [3]int64{e[0], e[1], n}
			}
			if data, err = json.Marshal(sc); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(side, data, 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			got, err := (&bench.Runner{Store: st2}).Run(trialW(1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("re-simulated result diverges from the stored one")
			}
			if s := st2.Stats(); s.Hits != 0 || s.Misses != 1 || s.Puts != 1 {
				t.Fatalf("traffic %+v, want 1 miss healed by 1 put", s)
			}
			if res, ok := lookupTrial(st2, trialW(1)); !ok || !reflect.DeepEqual(res, want) {
				t.Fatalf("entry not healed (ok=%v)", ok)
			}
		})
	}
}

// TestScanBoundsCorruptLength: a frame header that claims maxRecordLen
// bytes with only a few behind it must cost the index rebuild a bounded
// allocation (the 1 MiB read buffer plus one read step), not the claimed
// gigabyte, and the bytes it swallowed must not be indexed.
func TestScanBoundsCorruptLength(t *testing.T) {
	dir := t.TempDir()
	spec, err := bench.TrialSpecBytes(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	k := key(bench.EngineTag(), bench.KindTrial, spec)
	good, err := frameRecord(nil, k, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	seg := binary.BigEndian.AppendUint32(nil, uint32(maxRecordLen))
	seg = append(seg, 0, 0, 0, 0) // CRC
	seg = append(seg, good...)
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "segments", segmentName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("opening a segment with a corrupt length allocated %d bytes, want under 8 MiB", d)
	}
	if len(st.index) != 0 {
		t.Fatalf("indexed %d records past the corrupt frame", len(st.index))
	}
	if st.covered[0] != 0 {
		t.Fatalf("covered prefix %d, want 0", st.covered[0])
	}
}

// FuzzLoadSidecar feeds arbitrary bytes to Open as the sidecar. Open must
// not panic, and a lookup of each stored key must either hit with exactly
// the stored result or miss.
func FuzzLoadSidecar(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	const trials = 3
	for seed := uint64(1); seed <= trials; seed++ {
		if err := putTrial(st, trialW(seed), bench.Result{Throughput: float64(seed)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	side := filepath.Join(dir, "segments", "index.json")
	data, err := os.ReadFile(side)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"covered":{"0":99999},"entries":{}}`))
	f.Add([]byte(`{"version":1,"covered":{"0":-5},"entries":{"00":[0,0,-1]}}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(side, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for seed := uint64(1); seed <= trials; seed++ {
			if res, ok := lookupTrial(st, trialW(seed)); ok && !reflect.DeepEqual(res, bench.Result{Throughput: float64(seed)}) {
				t.Fatalf("seed %d served %+v", seed, res)
			}
		}
	})
}

// TestLazySpecEntriesDoNotDecodeResults: SpecEntry must carry the raw result
// until asked — Throughput() partial-decodes one field, Decode() the rest.
func TestLazySpecEntriesDoNotDecodeResults(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Runner{Store: st}
	res, err := r.Run(trialW(1))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.SpecEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Workload == nil || e.Seed() != 1 {
		t.Fatalf("spec not decoded: %+v", e)
	}
	if got := e.Throughput(); got != res.Throughput {
		t.Fatalf("lazy throughput %v, want %v", got, res.Throughput)
	}
	full, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*full.Result, res) {
		t.Fatal("Decode() diverges from the stored result")
	}
	// A scenario-shaped raw result must partial-decode the same way.
	if fmt.Sprintf("%.2f", e.Throughput()) != fmt.Sprintf("%.2f", res.Throughput) {
		t.Fatal("throughput unstable across repeated lazy decodes")
	}
}

// TestFlushCountersAccumulate pins the cumulative flush statistics the
// store summary line and the run manifests surface: every durable segment
// flush bumps Flushes and BytesWritten, the OnFlush hook sees the same
// totals, and the timing counters are live.
func TestFlushCountersAccumulate(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hookFlushes, hookRecords, hookBytes int
	st.OnFlush = func(records, bytes int) {
		hookFlushes++
		hookRecords += records
		hookBytes += bytes
	}
	const trials = 5
	r := bench.Runner{Store: st}
	for seed := uint64(1); seed <= trials; seed++ {
		if _, err := r.Run(trialW(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Flushes == 0 || s.BytesWritten == 0 {
		t.Fatalf("flush counters empty after %d puts: %+v", trials, s)
	}
	if int(s.Flushes) != hookFlushes {
		t.Errorf("Flushes = %d, hook saw %d", s.Flushes, hookFlushes)
	}
	if hookRecords != trials {
		t.Errorf("hook records = %d, want %d (every put published once)", hookRecords, trials)
	}
	if s.BytesWritten != uint64(hookBytes) {
		t.Errorf("BytesWritten = %d, hook saw %d", s.BytesWritten, hookBytes)
	}
	if s.FlushNanos <= 0 || s.FsyncNanos <= 0 {
		t.Errorf("flush/fsync timings = %d/%d, want > 0", s.FlushNanos, s.FsyncNanos)
	}
	roll := s.Rollup()
	if roll.Flushes != s.Flushes || roll.BytesWritten != s.BytesWritten || roll.FsyncNanos != s.FsyncNanos {
		t.Errorf("Rollup diverges from Stats: %+v vs %+v", roll, s)
	}
}

// TestOversizedRecordRejectedAtWriteTime: frameRecord enforces the same
// length bound the scan side does. Without the write-side check, one
// oversized payload is silently framed, then poisons every later record in
// its segment on index rebuild (scans stop at the first bad frame). The put
// must fail loudly, leave no phantom entry in the pending overlay, and leave
// the segment cleanly scannable for the records around it.
func TestOversizedRecordRejectedAtWriteTime(t *testing.T) {
	old := maxRecordLen
	maxRecordLen = 4096
	t.Cleanup(func() { maxRecordLen = old })

	// frameRecord itself refuses the oversized payload.
	key := strings.Repeat("ab", 32)
	if _, err := frameRecord(nil, key, make([]byte, 8192)); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("frameRecord(oversized) err = %v, want frame-limit error", err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putTrial(st, trialW(1), bench.Result{Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	big := trialW(2)
	big.DS = "list" + strings.Repeat("x", 8192)
	if err := putTrial(st, big, bench.Result{}); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("Put(oversized) err = %v, want frame-limit error", err)
	}
	if _, ok := lookupTrial(st, big); ok {
		t.Fatal("rejected oversized entry still served from the pending overlay")
	}
	if err := putTrial(st, trialW(3), bench.Result{Throughput: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both small records survive, the segment verifies clean end to
	// end (no poisoned tail), and the oversized spec is still a miss.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := lookupTrial(st2, trialW(1)); !ok {
		t.Error("record before the rejected put is gone")
	}
	if _, ok := lookupTrial(st2, trialW(3)); !ok {
		t.Error("record after the rejected put is gone")
	}
	if _, ok := lookupTrial(st2, big); ok {
		t.Error("oversized entry present after reopen")
	}
	sound, problems, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sound != 2 || len(problems) != 0 {
		t.Errorf("Verify = %d sound, %v problems; want 2 sound, none", sound, problems)
	}
}

// FuzzScanSegment fuzzes the frame decoder, the only path from disk bytes
// to a served record. On arbitrary input the scan must not panic; it must
// visit a contiguous run of records from the first byte and stop exactly at
// the first frame that does not decode; and every payload it visits must
// re-frame to exactly the bytes it was read from.
func FuzzScanSegment(f *testing.F) {
	// A small frame bound keeps a corrupt length field from allocating a
	// gigabyte per input; the scan logic under test is unchanged.
	old := maxRecordLen
	maxRecordLen = 1 << 16
	f.Cleanup(func() { maxRecordLen = old })

	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if err := putTrial(st, trialW(seed), bench.Result{Throughput: float64(seed)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	for _, path := range segmentsOn(f, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		flipped := append([]byte(nil), data...)
		flipped[recHeaderLen+recKeyLen] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var next int64
		end, err := scanSegment(bytes.NewReader(data), 0, func(key string, loc recLoc, payload []byte) error {
			if loc.off != next {
				t.Fatalf("visited a record at %d, want the next one at %d", loc.off, next)
			}
			frame := data[loc.off : loc.off+int64(loc.n)]
			again, err := frameRecord(nil, key, payload)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("record at %d does not re-frame to its bytes (err %v)", loc.off, err)
			}
			next = loc.off + int64(loc.n)
			return nil
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if end != next {
			t.Fatalf("scan ended at %d, last visited record ended at %d", end, next)
		}
		if frameAt(data, end) {
			t.Fatalf("scan stopped at %d before a sound frame", end)
		}
	})
}

// frameAt reports whether a complete, sound frame starts at data[off:].
func frameAt(data []byte, off int64) bool {
	rest := data[off:]
	if len(rest) < recHeaderLen {
		return false
	}
	n := int(binary.BigEndian.Uint32(rest[:4]))
	if n < recKeyLen || n > maxRecordLen || len(rest) < recHeaderLen+n {
		return false
	}
	_, _, err := parseRecord(rest[:recHeaderLen+n])
	return err == nil
}
