package lab

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/cache"
	"condaccess/internal/scenario"
	"condaccess/internal/smr"
)

// CellKey identifies one experiment cell: every spec coordinate that defines
// what was measured, excluding the seed — replicas of a cell differ only by
// seed, and the replication statistics summarize over them. Two stores
// produced by different engine versions (different tags, disjoint content
// addresses) still align on CellKey, which is what makes cross-run A/B
// comparison possible.
type CellKey struct {
	Kind      string // bench.KindTrial or bench.KindScenario
	DS        string
	Scheme    string
	Threads   int
	UpdatePct int // stationary trials
	KeyRange  uint64
	Ops       int // per thread; stationary trials
	Dist      string
	Scenario  string // scenario name; scenario trials

	// Variant fingerprints the remaining spec knobs that change what is
	// measured — buckets, check mode, op work, scheduler slack, SMR tuning,
	// cache geometry, and (for scenarios) the full scenario definition — so
	// ablation points (e.g. figures' assoc/smt/tuning grids, which vary only
	// the cache or SMR parameters) never pool as replicas of one cell. Empty
	// for the all-default configuration.
	Variant string
}

// String renders the cell compactly for tables.
func (k CellKey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s t=%d", k.DS, k.Scheme, k.Threads)
	if k.Kind == bench.KindScenario {
		fmt.Fprintf(&b, " sc=%s", k.Scenario)
	} else {
		fmt.Fprintf(&b, " u=%d ops=%d", k.UpdatePct, k.Ops)
	}
	fmt.Fprintf(&b, " r=%d", k.KeyRange)
	if k.Dist != "" && k.Dist != bench.DistUniform {
		fmt.Fprintf(&b, " %s", k.Dist)
	}
	if k.Variant != "" {
		fmt.Fprintf(&b, " [%s]", k.Variant)
	}
	return b.String()
}

// variantOf renders the non-default spec knobs compactly and
// deterministically. The cache geometry and scenario definition are too
// large to print, so they contribute short content fingerprints: enough to
// separate and align cells, at the cost of a hash in the label.
func variantOf(buckets int, check bool, work, slack uint64, o smr.Options, p cache.Params, sc *scenario.Scenario) string {
	var parts []string
	if buckets != 0 {
		parts = append(parts, fmt.Sprintf("buckets=%d", buckets))
	}
	if check {
		parts = append(parts, "check")
	}
	if work != 0 {
		parts = append(parts, fmt.Sprintf("work=%d", work))
	}
	if slack != 0 {
		parts = append(parts, fmt.Sprintf("slack=%d", slack))
	}
	if o != (smr.Options{}) {
		parts = append(parts, fmt.Sprintf("smr=r%d/e%d", o.ReclaimEvery, o.EpochEvery))
	}
	if p != (cache.Params{}) {
		parts = append(parts, "cache="+fingerprint(p))
	}
	if sc != nil {
		parts = append(parts, "def="+fingerprint(*sc))
	}
	return strings.Join(parts, ",")
}

// fingerprint digests any printable value into 8 hex characters.
func fingerprint(v any) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%08x", h.Sum32())
}

// less orders cells deterministically for reports.
func (k CellKey) less(o CellKey) bool {
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.DS != o.DS {
		return k.DS < o.DS
	}
	if k.Scenario != o.Scenario {
		return k.Scenario < o.Scenario
	}
	if k.UpdatePct != o.UpdatePct {
		return k.UpdatePct < o.UpdatePct
	}
	if k.Scheme != o.Scheme {
		return k.Scheme < o.Scheme
	}
	if k.Threads != o.Threads {
		return k.Threads < o.Threads
	}
	if k.KeyRange != o.KeyRange {
		return k.KeyRange < o.KeyRange
	}
	if k.Ops != o.Ops {
		return k.Ops < o.Ops
	}
	if k.Dist != o.Dist {
		return k.Dist < o.Dist
	}
	return k.Variant < o.Variant
}

// Cell is one experiment cell: its replicas' throughputs (ordered by seed,
// so the same replicas summarize identically regardless of store layout)
// and their replication statistics.
type Cell struct {
	Key         CellKey
	Seeds       []uint64
	Throughputs []float64
	Stats       bench.Summary
}

// normDist folds the two spellings of the default key distribution ("" and
// "uniform" run identical trials) into one, so the same experiment measured
// by tools with different defaulting conventions (cabench passes "uniform",
// figures leaves it empty) lands in — and aligns on — one cell. Store keys
// deliberately do NOT normalize: a hit must return the byte-exact result of
// the identical spec, embedded Workload spelling included.
func normDist(d string) string {
	if d == "" {
		return bench.DistUniform
	}
	return d
}

// cellKeyOf derives the cell coordinates of one entry.
func cellKeyOf(e SpecEntry) CellKey {
	if e.Kind == bench.KindScenario {
		sw := e.Scenario
		return CellKey{
			Kind: bench.KindScenario, DS: sw.DS, Scheme: sw.Scheme, Threads: sw.Threads,
			KeyRange: sw.KeyRange, Dist: normDist(sw.Dist), Scenario: sw.Scenario.Name,
			Variant: variantOf(bench.EffectiveBuckets(sw.DS, sw.Buckets), sw.Check, 0, sw.Slack, sw.SMR, sw.Cache, &sw.Scenario),
		}
	}
	w := e.Workload
	return CellKey{
		Kind: bench.KindTrial, DS: w.DS, Scheme: w.Scheme, Threads: w.Threads,
		UpdatePct: w.UpdatePct, KeyRange: w.KeyRange, Ops: w.OpsPerThread, Dist: normDist(w.Dist),
		Variant: variantOf(bench.EffectiveBuckets(w.DS, w.Buckets), w.Check, w.OpWorkCycles, w.Slack, w.SMR, w.Cache, nil),
	}
}

// Cells groups entries into experiment cells and summarizes each, returning
// them in deterministic report order. It works on SpecEntry so cell grouping
// only ever decodes the spec half of each envelope; the result payload
// contributes exactly the throughput, extracted by a partial decode.
func Cells(entries []SpecEntry) []Cell {
	type replica struct {
		seed uint64
		tp   float64
	}
	groups := map[CellKey][]replica{}
	for _, e := range entries {
		groups[cellKeyOf(e)] = append(groups[cellKeyOf(e)],
			replica{seed: e.Seed(), tp: e.Throughput()})
	}
	cells := make([]Cell, 0, len(groups))
	for k, rs := range groups {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].seed != rs[j].seed {
				return rs[i].seed < rs[j].seed
			}
			return rs[i].tp < rs[j].tp
		})
		c := Cell{Key: k}
		for _, r := range rs {
			c.Seeds = append(c.Seeds, r.seed)
			c.Throughputs = append(c.Throughputs, r.tp)
		}
		c.Stats = bench.Summarize(c.Throughputs)
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key.less(cells[j].Key) })
	return cells
}

// SnapshotCells loads one store's entries and groups them into cells for
// comparison. A store reused across engine versions without gc holds the
// same cells under several tags; pooling those as replicas would mix engine
// versions inside one snapshot's statistics, so a mixed store is refused —
// cross-version comparison means one single-tag store per side.
func SnapshotCells(st *Store) ([]Cell, error) {
	entries, err := st.SpecEntries()
	if err != nil {
		return nil, err
	}
	tags := map[string]int{}
	for _, e := range entries {
		tags[e.Tag]++
	}
	if len(tags) > 1 {
		return nil, fmt.Errorf("lab: store %s mixes %d engine versions %v; run calab gc (keeps the current engine's entries) or use one store per version",
			st.Dir(), len(tags), tags)
	}
	return Cells(entries), nil
}

// DiffRow is one aligned cell of a cross-run comparison: the replication
// statistics on each side, the speedup of B over A, and whether the
// difference is significant (the 95% confidence intervals do not overlap).
type DiffRow struct {
	Key         CellKey
	A, B        bench.Summary
	Speedup     float64 // B.Mean / A.Mean
	Significant bool
}

// Diff aligns the cells of two snapshots. Cells present on only one side
// are returned separately — a coverage change is a finding, not an error.
func Diff(a, b []Cell) (rows []DiffRow, onlyA, onlyB []CellKey) {
	am := make(map[CellKey]Cell, len(a))
	for _, c := range a {
		am[c.Key] = c
	}
	bm := make(map[CellKey]Cell, len(b))
	for _, c := range b {
		bm[c.Key] = c
	}
	for _, ca := range a {
		cb, ok := bm[ca.Key]
		if !ok {
			onlyA = append(onlyA, ca.Key)
			continue
		}
		row := DiffRow{Key: ca.Key, A: ca.Stats, B: cb.Stats}
		if ca.Stats.Mean != 0 {
			row.Speedup = cb.Stats.Mean / ca.Stats.Mean
		}
		row.Significant = !ca.Stats.Overlaps(cb.Stats)
		rows = append(rows, row)
	}
	for _, cb := range b {
		if _, ok := am[cb.Key]; !ok {
			onlyB = append(onlyB, cb.Key)
		}
	}
	return rows, onlyA, onlyB
}

// FormatCells renders a snapshot's cell table (calab inspect).
func FormatCells(cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %2s %10s %8s %8s %10s %10s %10s\n",
		"cell", "n", "mean", "sd", "±95", "min", "median", "max")
	for _, c := range cells {
		s := c.Stats
		fmt.Fprintf(&b, "%-44s %2d %10.1f %8.1f %8.1f %10.1f %10.1f %10.1f\n",
			c.Key, s.Count, s.Mean, s.Stddev, s.CI95, s.Min, s.Median, s.Max)
	}
	return b.String()
}

// FormatDiff renders a cross-run comparison (calab diff). The significance
// column marks cells whose 95% confidence intervals are disjoint; "~" means
// the difference is within the replication noise (or a side has too few
// replicas to tell).
func FormatDiff(rows []DiffRow, onlyA, onlyB []CellKey) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %2s %10s %8s %2s %10s %8s %8s %3s\n",
		"cell", "nA", "meanA", "±95A", "nB", "meanB", "±95B", "speedup", "sig")
	for _, r := range rows {
		sig := "~"
		if r.Significant {
			sig = "*"
		}
		fmt.Fprintf(&b, "%-44s %2d %10.1f %8.1f %2d %10.1f %8.1f %7.3fx %3s\n",
			r.Key, r.A.Count, r.A.Mean, r.A.CI95, r.B.Count, r.B.Mean, r.B.CI95, r.Speedup, sig)
	}
	for _, k := range onlyA {
		fmt.Fprintf(&b, "%-44s only in A\n", k)
	}
	for _, k := range onlyB {
		fmt.Fprintf(&b, "%-44s only in B\n", k)
	}
	return b.String()
}
