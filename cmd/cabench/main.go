// cabench runs one throughput sweep of the paper's evaluation: a data
// structure crossed with reclamation schemes, thread counts, and update
// rates, reporting operations per million simulated cycles. Trials fan out
// across OS threads (-workers, default GOMAXPROCS); results are identical
// to -workers 1, just faster.
//
// Examples:
//
//	cabench -ds list -updates 0,10,100 -threads 1,2,4,8,16,32   # Figure 1 top
//	cabench -ds bst -range 10000                                # Figure 1 bottom
//	cabench -ds hash                                            # Figure 2 top
//	cabench -ds stack                                           # Figure 2 bottom
//	cabench -ds list -schemes ca,rcu -check                     # with safety assertions
//	cabench -ds list -trials 3 -workers 8                       # parallel trial execution
//	cabench -ds list -trials 3 -store results/store             # warm cells skip simulation
//	cabench -ds bst -range 1000 -threads 8 -updates 100 -lat    # per-point cache/CA/SMR/memory/latency detail
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
	"condaccess/internal/trace"
)

// options is the parsed command line.
type options struct {
	cfg       bench.SweepConfig
	csvPath   string
	storePath string
	verbose   bool
	tail      bool
	timeline  bool
	tracePath string
	obs       obs.CLIFlags
	// set is the parsed flag set: the farm forwards the flags the user set
	// to its workers.
	set *flag.FlagSet

	// shardIdx/shardOf select worker mode (-shard I/N): run only this
	// shard's jobs into the store, render no table. shardOf == 0 means
	// unsharded.
	shardIdx, shardOf int
	// farm selects coordinator mode (-farm N): spawn N worker processes,
	// merge their shard stores, then render the sweep warm.
	farm int
}

// command binds cabench to opt: the shared frame parses and resolves into
// opt, then runs the mode it selects.
func command(opt *options) obs.Command {
	return obs.Command{
		Tool: "cabench", EngineTag: bench.EngineTag(), Obs: &opt.obs,
		Flags: opt.register,
		Body: func(rec *obs.Rec, stdout, stderr io.Writer) error {
			switch {
			case opt.shardOf > 0:
				return shardRun(*opt, rec, stdout, stderr)
			case opt.farm > 0:
				return farmRun(*opt, rec, stdout, stderr)
			}
			return sweep(*opt, rec, stdout, stderr)
		},
	}
}

// register installs cabench's flags on fs and returns the step that
// resolves them into opt, applying the paper's per-structure key-range
// defaults.
func (opt *options) register(fs *flag.FlagSet) func() (obs.SessionConfig, error) {
	var tf bench.TrialFlags
	tf.Register(fs)
	var (
		schemes = fs.String("schemes", "none,ca,ibr,rcu,qsbr,hp,he", "comma-separated schemes")
		threads = fs.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		updates = fs.String("updates", "0,10,100", "comma-separated update percentages")
		ops     = fs.Int("ops", 3000, "operations per thread (paper: 3000)")
		trials  = fs.Int("trials", 1, "trials per point, throughput averaged (paper: 3)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel trial workers (1: sequential)")
		shard   = fs.String("shard", "", "worker mode: run only shard I/N of the sweep's job list into -store, render no table")
	)
	fs.StringVar(&opt.csvPath, "csv", "", "also write long-form CSV to this file")
	fs.BoolVar(&opt.verbose, "v", false, "print each point as it completes")
	fs.IntVar(&opt.farm, "farm", 0, "coordinator mode: spawn N worker processes over private shard stores, merge into -store, render warm")
	opt.set = fs
	return func() (obs.SessionConfig, error) {
		// Empty lists and negative trials are command-line errors, caught
		// here rather than as a run failure when the sweep validates.
		schemeList := bench.SplitList(*schemes)
		if len(schemeList) == 0 {
			return obs.SessionConfig{}, errors.New("-schemes: empty list")
		}
		threadList, err := bench.SplitInts(*threads)
		if err == nil && len(threadList) == 0 {
			err = errors.New("empty list")
		}
		if err != nil {
			return obs.SessionConfig{}, fmt.Errorf("-threads: %w", err)
		}
		updateList, err := bench.SplitInts(*updates)
		if err == nil && len(updateList) == 0 {
			err = errors.New("empty list")
		}
		if err != nil {
			return obs.SessionConfig{}, fmt.Errorf("-updates: %w", err)
		}
		if *trials < 0 {
			return obs.SessionConfig{}, fmt.Errorf("-trials %d must be non-negative", *trials)
		}
		wk := *workers
		if tf.Trace != "" {
			// Deterministic trace files need the sequential path: one sink
			// recording trials in sweep order.
			wk = 1
		}
		if *shard != "" {
			if opt.shardIdx, opt.shardOf, err = parseShard(*shard); err != nil {
				return obs.SessionConfig{}, err
			}
		}
		// Farm-mode plumbing: both modes fill a store (that is the whole
		// point), and neither composes with tracing, which needs one
		// sequential process.
		farmed := opt.shardOf > 0 || opt.farm > 0
		switch {
		case opt.shardOf > 0 && opt.farm > 0:
			err = errors.New("pick one of -shard (worker) and -farm (coordinator)")
		case farmed && tf.Store == "":
			err = errors.New("-shard and -farm require -store")
		case farmed && tf.Trace != "":
			err = errors.New("-trace needs a single sequential process; drop -shard/-farm")
		case opt.shardOf > 0 && opt.csvPath != "":
			err = errors.New("-shard renders no sweep output; ask the coordinator (or a warm re-run) for -csv")
		case opt.farm < 0:
			err = fmt.Errorf("-farm %d must be non-negative", opt.farm)
		}
		if err != nil {
			return obs.SessionConfig{}, err
		}
		opt.cfg = bench.SweepConfig{
			DS:       tf.DS,
			Schemes:  schemeList,
			Threads:  threadList,
			Updates:  updateList,
			KeyRange: tf.KeyRange(), Ops: *ops, Buckets: tf.Buckets,
			Seed: tf.Seed, Check: tf.Check, Trials: *trials, Workers: wk,
			Dist: tf.Dist, RecordLatency: tf.Lat, RecordTail: tf.Tail,
			RecordTimeline: tf.Timeline, TimelineWindow: tf.TimelineWindow,
		}
		opt.storePath, opt.tail = tf.Store, tf.Tail
		opt.timeline, opt.tracePath = tf.Timeline, tf.Trace
		return obs.SessionConfig{
			Spec: opt.cfg, StoreDir: opt.storePath,
			TraceOut: opt.tracePath, Timeline: opt.timeline,
		}, nil
	}
}

// parseShard parses "I/N" into a 0-based shard index and shard count.
func parseShard(s string) (idx, of int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		if idx, err = strconv.Atoi(i); err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || of < 1 || idx < 0 || idx >= of {
		return 0, 0, fmt.Errorf("-shard %q: want I/N with 0 <= I < N", s)
	}
	return idx, of, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced, so the failure modes
// (bad flags, unopenable store, unwritable CSV) are pinned by tests; the
// shared frame keeps the one-line, 0/1/2 exit contract.
func run(args []string, stdout, stderr io.Writer) int {
	return command(new(options)).Main(args, stdout, stderr)
}

// sweep executes the parsed sweep and renders every output. Observability
// (rec may be nil) is out-of-band: stdout is byte-identical with or without
// it.
func sweep(opt options, rec *obs.Rec, stdout, stderr io.Writer) (err error) {
	cfg := opt.cfg
	cfg.Obs = rec
	store, finish, err := lab.OpenForRun(opt.storePath, rec, stderr)
	if err != nil {
		return err
	}
	defer finish(&err)
	cfg.Store = store
	var sink *trace.Sink
	if opt.tracePath != "" {
		sink = &trace.Sink{}
		cfg.Trace = sink
	}
	var progress func(bench.SweepPoint)
	if opt.verbose {
		total := len(cfg.Schemes) * len(cfg.Threads) * len(cfg.Updates)
		n := 0
		progress = func(p bench.SweepPoint) {
			n++
			fmt.Fprintf(stderr, "  [%3d/%3d] %-5s t=%-2d u=%3d%%: %10.1f ops/Mcyc\n",
				n, total, p.Scheme, p.Threads, p.UpdatePct, p.Throughput)
		}
	}
	points, err := bench.Sweep(cfg, progress)
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.WriteFile(opt.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s\n", sink.Len(), opt.tracePath)
	}
	for _, u := range cfg.Updates {
		fmt.Fprintf(stdout, "== %s, %d%% updates (%di-%dd), %d keys, %d ops/thread [ops/Mcyc] ==\n",
			cfg.DS, u, u/2, u/2, cfg.KeyRange, cfg.Ops)
		fmt.Fprint(stdout, bench.FormatTable(points, u))
		fmt.Fprintln(stdout)
	}
	if cfg.RecordLatency {
		printDetail(stdout, points)
	}
	if opt.tail {
		printTail(stdout, points)
	}
	if opt.timeline {
		printTimelines(stdout, points)
	}
	if opt.csvPath != "" {
		f, err := os.Create(opt.csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteCSV(f, cfg.DS, points); err != nil {
			return err
		}
	}
	return nil
}

// printDetail renders each point's last trial in detail: cache traffic,
// Conditional Access or reclaimer activity, memory footprint, and exact
// per-op latency percentiles.
func printDetail(w io.Writer, points []bench.SweepPoint) {
	fmt.Fprintln(w, "== per-point detail, last trial ==")
	for _, p := range points {
		res := p.Result
		fmt.Fprintf(w, "-- %s t=%d u=%d%%: %.1f ops/Mcyc --\n", p.Scheme, p.Threads, p.UpdatePct, res.Throughput)
		c := res.Cache
		accesses := c.L1Hits + c.L1Misses
		fmt.Fprintf(w, "  cache:   %d accesses, L1 hit %.2f%%, L2 miss %d, remote-fwd %d, invalidations %d, upgrades %d, L1 evictions %d\n",
			accesses, 100*float64(c.L1Hits)/float64(max(accesses, 1)),
			c.L2Misses, c.RemoteFwds, c.Invalidations, c.Upgrades, c.L1Evictions)
		if p.Scheme == "ca" {
			a := res.CA
			fmt.Fprintf(w, "  ca:      %d creads (%d failed), %d cwrites (%d failed, %d untagged), %d revocations, max tagset %d\n",
				a.CReads, a.CReadFails, a.CWrites, a.CWriteFails, a.Untagged, a.Revocations, a.MaxTagSet)
		} else if p.Scheme != "none" {
			s := res.SMR
			fmt.Fprintf(w, "  smr:     retired %d, freed %d, scans %d, max backlog %d\n",
				s.Retired, s.Freed, s.Scans, s.MaxBacklog)
		}
		fmt.Fprintf(w, "  memory:  live %d nodes, peak %d, heap high-water %d lines\n",
			res.Mem.NodeLive(), res.Mem.PeakLive, res.Mem.NodeAllocs-res.Mem.NodeFrees+res.Mem.InfraLines)
		l := res.Latency
		fmt.Fprintf(w, "  latency: p50 %d, p90 %d, p99 %d, p99.9 %d, max %d cycles (retries %d)\n\n",
			l.P50, l.P90, l.P99, l.P999, l.Max, res.Retries)
	}
}

// printTail renders the per-point tail-latency table: percentiles of the
// point's trials merged into one histogram (so every recorded op counts,
// not just the last trial's), with max and mean exact.
func printTail(w io.Writer, points []bench.SweepPoint) {
	fmt.Fprintln(w, "== tail latency [cycles], all trials merged ==")
	fmt.Fprintf(w, "%-6s %4s %4s %10s %8s %8s %8s %8s %10s\n",
		"scheme", "t", "u%", "samples", "p50", "p99", "p99.9", "max", "mean")
	for _, p := range points {
		s := p.Tail
		fmt.Fprintf(w, "%-6s %4d %4d %10d %8d %8d %8d %8d %10.1f\n",
			p.Scheme, p.Threads, p.UpdatePct, s.Samples, s.P50, s.P99, s.P999, s.Max, s.Mean)
	}
	fmt.Fprintln(w)
}

// printTimelines renders each point's windowed sim-time metrics series,
// all trials merged window by window (trials share the measured cycle axis).
func printTimelines(w io.Writer, points []bench.SweepPoint) {
	fmt.Fprintln(w, "== sim-time timelines [per window], all trials merged ==")
	for _, p := range points {
		if p.Timeline == nil {
			continue
		}
		fmt.Fprintf(w, "-- %s t=%d u=%d%% --\n", p.Scheme, p.Threads, p.UpdatePct)
		p.Timeline.WriteTable(w)
		fmt.Fprintln(w)
	}
}
