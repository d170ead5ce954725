package latency

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sample pools spanning the exact region, several octaves, and the extremes.
func randomSamples(rng *rand.Rand, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		switch rng.Intn(4) {
		case 0:
			vs[i] = uint64(rng.Intn(subCount)) // exact buckets
		case 1:
			vs[i] = uint64(rng.Intn(1 << 12))
		case 2:
			vs[i] = uint64(rng.Int63n(1 << 40))
		default:
			vs[i] = rng.Uint64()
		}
	}
	return vs
}

func fromSamples(vs []uint64) *Hist {
	var h Hist
	for _, v := range vs {
		h.Record(v)
	}
	return &h
}

// TestBucketLayout checks the index/bounds pair is a partition: every bucket
// contains exactly the values that map to it, buckets tile the uint64 range
// in order, and the relative width bound holds.
func TestBucketLayout(t *testing.T) {
	var prevHi uint64
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if i == 0 {
			if lo != 0 {
				t.Fatalf("bucket 0 starts at %d, want 0", lo)
			}
		} else if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo %d, want %d (buckets must tile)", i, lo, prevHi+1)
		}
		prevHi = hi
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, i)
		}
		// One bucket's relative error bound: width <= lo/subCount above the
		// exact region.
		if lo >= subCount && hi-lo+1 > lo/subCount {
			t.Fatalf("bucket %d [%d,%d]: width %d exceeds lo/%d", i, lo, hi, hi-lo+1, subCount)
		}
	}
	if prevHi != ^uint64(0) {
		t.Fatalf("last bucket ends at %d, want 2^64-1", prevHi)
	}
}

// TestMergeAssociativeCommutative: merging is associative and commutative
// with exact count preservation — any merge tree over any ordering of the
// per-thread histograms yields the identical histogram.
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([][]uint64, 5)
	var all []uint64
	for i := range parts {
		parts[i] = randomSamples(rng, 200+rng.Intn(300))
		all = append(all, parts[i]...)
	}

	direct := fromSamples(all)

	// Left fold in order.
	var leftFold Hist
	for _, p := range parts {
		leftFold.Merge(fromSamples(p))
	}
	// Right-leaning tree over a shuffled order.
	order := rng.Perm(len(parts))
	var tree Hist
	for i := len(order) - 1; i >= 0; i-- {
		sub := fromSamples(parts[order[i]])
		sub.Merge(&tree)
		tree = *sub
	}

	for name, h := range map[string]*Hist{"leftFold": &leftFold, "shuffledTree": &tree} {
		if h.Count() != uint64(len(all)) {
			t.Errorf("%s: count %d, want %d", name, h.Count(), len(all))
		}
		if h.Sum() != direct.Sum() || h.Min() != direct.Min() || h.Max() != direct.Max() {
			t.Errorf("%s: scalar stats diverge from direct recording", name)
		}
		if !reflect.DeepEqual(h.counts, direct.counts) {
			t.Errorf("%s: bucket counts diverge from direct recording", name)
		}
	}
}

// TestQuantileWithinOneBucket: for every probed quantile, the exact-sort
// value of the same rank must lie inside the bucket the histogram answers
// from — the "within one bucket's relative error" contract.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		vs := randomSamples(rng, 1+rng.Intn(4000))
		h := fromSamples(vs)
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := sorted[int(p*float64(len(sorted)-1))]
			est := h.Quantile(p)
			if est < exact {
				t.Fatalf("p=%v: estimate %d below exact %d", p, est, exact)
			}
			lo, _ := BucketBounds(bucketIndex(est))
			if exact < lo {
				t.Fatalf("p=%v: exact %d not in estimate's bucket [lo %d, est %d]", p, exact, lo, est)
			}
		}
		if h.Quantile(1) != sorted[len(sorted)-1] {
			t.Fatalf("p=1 must be the exact maximum")
		}
	}
}

// TestQuantileEdgeCases pins Quantile's handling of out-of-domain p values
// (regression: NaN slipped past both ordered clamps, making the
// float-to-uint rank conversion undefined) and the empty-histogram case.
func TestQuantileEdgeCases(t *testing.T) {
	var empty Hist
	for _, p := range []float64{math.NaN(), math.Inf(-1), -1, 0, 0.5, 1, 2, math.Inf(1)} {
		if got := empty.Quantile(p); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", p, got)
		}
	}

	h := fromSamples([]uint64{5, 10, 20, 40, 80})
	p0, p1 := h.Quantile(0), h.Quantile(1)
	if p1 != h.Max() {
		t.Fatalf("Quantile(1) = %d, want exact max %d", p1, h.Max())
	}
	// NaN, -Inf, and any negative p clamp to the 0-quantile; +Inf and any
	// p > 1 clamp to the 1-quantile. None may panic or fall outside the
	// recorded range.
	for _, tc := range []struct {
		p    float64
		want uint64
	}{
		{math.NaN(), p0},
		{math.Inf(-1), p0},
		{-0.5, p0},
		{1.5, p1},
		{math.Inf(1), p1},
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestRecordAllocationFree pins the O(buckets) memory contract: after the
// one-time bucket-array warm-up, recording (and quantile queries) allocate
// nothing, so RecordLatency runs cost O(buckets) — not O(ops) — memory.
func TestRecordAllocationFree(t *testing.T) {
	var tl Tail
	// Warm-up: touch every histogram once so bucket arrays exist.
	for k := KindInsert; k <= KindRead; k++ {
		for a := AttrUseful; a <= AttrRetry; a++ {
			tl.Record(k, a, 100)
		}
	}
	tl.RecordPause(50)

	v := uint64(17)
	if avg := testing.AllocsPerRun(2000, func() {
		tl.Record(KindInsert, AttrReclaim, v)
		tl.RecordPause(v)
		v = v*2862933555777941757 + 3037000493 // spread across buckets
	}); avg != 0 {
		t.Fatalf("Record allocates %v per op after warm-up, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = tl.Total.Quantile(0.99)
	}); avg != 0 {
		t.Fatalf("Quantile allocates %v per call, want 0", avg)
	}
}

// TestHistJSONRoundTrip: the sparse JSON form reconstructs the histogram
// exactly (the store envelope persists these).
func TestHistJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tl Tail
	for i := 0; i < 3000; i++ {
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), randomSamples(rng, 1)[0])
	}
	tl.RecordPause(12345)

	data, err := json.Marshal(&tl)
	if err != nil {
		t.Fatal(err)
	}
	var back Tail
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, back) {
		t.Fatalf("tail JSON round trip lost information")
	}

	// Empty histograms stay empty (no bucket allocation) through the trip.
	var empty, emptyBack Hist
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, emptyBack) {
		t.Fatalf("empty hist round trip: %+v != %+v", empty, emptyBack)
	}
	if emptyBack.counts != nil {
		t.Fatalf("empty hist decode allocated buckets")
	}

	// Corrupt envelopes are rejected, not silently mis-decoded.
	if err := new(Hist).UnmarshalJSON([]byte(`{"count":1,"idx":[1,2],"n":[3]}`)); err == nil {
		t.Fatal("idx/n length mismatch accepted")
	}
	if err := new(Hist).UnmarshalJSON([]byte(`{"count":1,"idx":[99999],"n":[1]}`)); err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

// TestTailPartitions: Record keeps the kind and attribution partitions exact
// — each sums to Total, bucket for bucket.
func TestTailPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tl Tail
	for i := 0; i < 5000; i++ {
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), randomSamples(rng, 1)[0])
	}
	for name, group := range map[string][]*Hist{
		"kind": {&tl.Insert, &tl.Delete, &tl.Read},
		"attr": {&tl.Useful, &tl.Reclaim, &tl.Retry},
	} {
		var sum Hist
		for _, h := range group {
			sum.Merge(h)
		}
		if !reflect.DeepEqual(sum, tl.Total) {
			t.Errorf("%s partition does not sum to the total histogram", name)
		}
	}
}

// TestResetKeepsAllocation: Reset empties without dropping the bucket array
// (per-thread Tails are reused across phases), and a reset histogram merges
// as a no-op.
func TestResetKeepsAllocation(t *testing.T) {
	var h Hist
	h.Record(9)
	buf := &h.counts[0]
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset histogram not empty")
	}
	h.Record(9)
	if &h.counts[0] != buf {
		t.Fatal("reset dropped the bucket allocation")
	}
	var into Hist
	into.Record(5)
	empty := Hist{counts: make([]uint64, NumBuckets)}
	into.Merge(&empty)
	if into.Count() != 1 || into.Min() != 5 {
		t.Fatal("merging an empty histogram changed the target")
	}
}

// marshalHistJSON is the reference encoding: the histJSON form through
// encoding/json.
func marshalHistJSON(h Hist) ([]byte, error) {
	j := histJSON{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			j.Idx = append(j.Idx, i)
			j.N = append(j.N, c)
		}
	}
	return json.Marshal(j)
}

// sameHist reports whether a and b hold the same statistics and bucket
// counts, treating an unallocated bucket array as all zeros.
func sameHist(a, b Hist) bool {
	if a.n != b.n || a.sum != b.sum || a.min != b.min || a.max != b.max {
		return false
	}
	for i := 0; i < NumBuckets; i++ {
		var ca, cb uint64
		if a.counts != nil {
			ca = a.counts[i]
		}
		if b.counts != nil {
			cb = b.counts[i]
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// FuzzHistJSON checks the hand-written histogram codec against
// encoding/json. For any input, UnmarshalJSON must fail with the reference
// decode's error or succeed with its exact Hist; and any Hist that decodes
// must marshal to the reference encoding byte for byte, and decode back to
// the same statistics.
func FuzzHistJSON(f *testing.F) {
	// A simulated list/rcu trial's total latency histogram, verbatim.
	f.Add([]byte(`{"count":80,"sum":11612,"min":26,"max":765,"idx":[26,27,28,30,32,33,34,35,36,37,38,39,40,41,43,44,45,46,50,51,55,56,57,58,59,62,64,68,69,75,76,77,80,81,82,86,87,88,93,95,96,100,103],"n":[1,1,2,1,2,3,5,3,2,1,2,1,4,4,4,1,1,2,1,1,2,1,3,2,2,2,1,2,1,1,3,3,3,1,2,1,1,1,1,1,2,1,1]}`))
	// Every histogram of a recorded Tail, as the store envelope holds them.
	rng := rand.New(rand.NewSource(5))
	var tl Tail
	for i := 0; i < 500; i++ {
		tl.Record(Kind(rng.Intn(3)), Attr(rng.Intn(3)), randomSamples(rng, 1)[0])
	}
	tl.RecordPause(math.MaxUint64)
	for _, h := range []*Hist{&tl.Total, &tl.Insert, &tl.Delete, &tl.Read, &tl.Useful, &tl.Reclaim, &tl.Retry, &tl.Pause, {}} {
		data, err := h.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := parseCanonicalHist(data); !ok {
			f.Fatalf("%s is not parsed as canonical", data)
		}
		f.Add(data)
	}
	// Inputs off the canonical form, each handled by the reference path.
	for _, s := range []string{
		`null`, `{}`, `{"count":0}`, ` {"count":1}`, `{"count":1,"sum":0}`,
		`{"sum":2,"count":1}`, `{"count":1,"count":2}`, `{"COUNT":3}`,
		`{"count":1,"idx":[],"n":[]}`, `{"count":1,"idx":[1,2],"n":[3]}`,
		`{"count":1,"idx":[99999],"n":[1]}`, `{"count":1,"idx":[-1],"n":[1]}`,
		`{"count":1,"idx":[3,3],"n":[1,2]}`, `{"count":1,"idx":[3],"n":[0]}`,
		`{"count":18446744073709551616}`, `{"count":01}`, `{"count":1.0}`,
		`{"count":1}x`, `{"count":1,"n":[1]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Hist
		gotErr := got.UnmarshalJSON(data)
		wantErr := want.unmarshalHistJSON(data)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("UnmarshalJSON(%q) error %v, reference %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, reference %+v", data, got, want)
		}
		if gotErr != nil {
			return
		}
		enc, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := marshalHistJSON(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(ref) {
			t.Fatalf("MarshalJSON = %s, reference %s", enc, ref)
		}
		var back Hist
		if err := back.UnmarshalJSON(enc); err != nil || !sameHist(back, got) {
			t.Fatalf("%s does not decode back to its Hist (err %v)", enc, err)
		}
	})
}
