package bench

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// TrialFlags is the trial-shaping flag block the sweep and scenario CLIs
// share: every flag here reaches the trial workload (and so its content
// key) or the trial's recording.
type TrialFlags struct {
	DS             string
	Range          uint64 // 0: PaperKeyRange(DS); read it through KeyRange
	Buckets        int
	Seed           uint64
	Check          bool
	Dist           string
	Lat            bool
	Tail           bool
	Timeline       bool
	TimelineWindow uint64
	Trace          string
	Store          string
}

// Register installs the block on fs.
func (t *TrialFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.DS, "ds", "list", "data structure: list, hmlist, bst, hash, stack, queue")
	fs.Uint64Var(&t.Range, "range", 0, "key range (default: paper's per-structure value)")
	fs.IntVar(&t.Buckets, "buckets", 128, "hash table buckets")
	fs.Uint64Var(&t.Seed, "seed", 1, "base RNG seed")
	fs.BoolVar(&t.Check, "check", false, "enable use-after-free and Theorem 6/7 assertions")
	fs.StringVar(&t.Dist, "dist", "uniform", "key distribution: uniform or zipf (a scenario's default for phases that name none)")
	fs.BoolVar(&t.Lat, "lat", false, "also print latency percentiles per scenario phase, or a detail block per sweep point (cache, reclamation, memory, latency of its last trial)")
	fs.BoolVar(&t.Tail, "tail", false, "print tail-latency tables per sweep point or scenario phase, all trials merged")
	fs.BoolVar(&t.Timeline, "timeline", false, "record and print windowed sim-time metric timelines per sweep point or scenario phase")
	fs.Uint64Var(&t.TimelineWindow, "timeline-window", 0, "timeline window size in simulated cycles (0: default)")
	fs.StringVar(&t.Trace, "trace", "", "write a Chrome trace_event JSON file of every simulated trial (forces sequential trials)")
	fs.StringVar(&t.Store, "store", "", "content-addressed result store directory (warm trials skip simulation)")
}

// KeyRange is -range, or the paper's per-structure default when unset.
func (t *TrialFlags) KeyRange() uint64 {
	if t.Range != 0 {
		return t.Range
	}
	return PaperKeyRange(t.DS)
}

// PaperKeyRange is the key range the paper evaluates ds at: 10K keys for
// the external BST, 1K for every other structure.
func PaperKeyRange(ds string) uint64 {
	if ds == "bst" {
		return 10000
	}
	return 1000
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// SplitInts is SplitList for a list of integers.
func SplitInts(s string) ([]int, error) {
	var out []int
	for _, p := range SplitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
