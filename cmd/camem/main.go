// camem regenerates the paper's Figure 3: the number of nodes allocated but
// not yet freed, sampled as a lazy list runs a 100% update workload. The
// paper's configuration is the default: key range 1000 (list size ~500), 16
// threads, 5000 operations per thread, sampled every 1000 operations.
//
// Expected shape: ca stays flat at the live list size (~500); hp/he/ibr
// plateau at their reclamation thresholds; rcu/qsbr ride higher; none grows
// without bound.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// options is the parsed command line: one Workload per scheme plus the
// output and execution knobs.
type options struct {
	ws        []bench.Workload
	schemes   []string
	csvPath   string
	storePath string
	workers   int
	obs       obs.CLIFlags
}

// command binds camem to opt: the shared frame parses and resolves into
// opt, then runs the footprint workloads.
func command(opt *options) obs.Command {
	return obs.Command{
		Tool: "camem", EngineTag: bench.EngineTag(), Obs: &opt.obs,
		Flags: opt.register, Body: opt.footprint,
	}
}

// register installs camem's flags on fs and returns the step that resolves
// them into per-scheme workloads.
func (opt *options) register(fs *flag.FlagSet) func() (obs.SessionConfig, error) {
	var (
		schemes = fs.String("schemes", "none,ca,ibr,rcu,qsbr,hp,he", "comma-separated schemes")
		threads = fs.Int("threads", 16, "threads (paper: 16)")
		keys    = fs.Uint64("range", 1000, "key range (paper: 1000)")
		ops     = fs.Int("ops", 5000, "operations per thread (paper: 5000)")
		every   = fs.Int("sample", 1000, "sample footprint every N total ops (paper: 1000)")
		seed    = fs.Uint64("seed", 1, "RNG seed")
		check   = fs.Bool("check", false, "enable safety assertions")
	)
	fs.StringVar(&opt.csvPath, "csv", "", "also write CSV to this file")
	fs.StringVar(&opt.storePath, "store", "", "content-addressed result store directory (warm schemes skip simulation)")
	fs.IntVar(&opt.workers, "workers", runtime.GOMAXPROCS(0), "parallel scheme workers (1: sequential)")
	return func() (obs.SessionConfig, error) {
		if opt.schemes = bench.SplitList(*schemes); len(opt.schemes) == 0 {
			return obs.SessionConfig{}, errors.New("-schemes: empty list")
		}
		opt.ws = make([]bench.Workload, len(opt.schemes))
		for i, scheme := range opt.schemes {
			opt.ws[i] = bench.Workload{
				DS: "list", Scheme: scheme,
				Threads: *threads, KeyRange: *keys, UpdatePct: 100,
				OpsPerThread: *ops, Seed: *seed, Check: *check,
				FootprintEvery: *every,
			}
		}
		return obs.SessionConfig{Spec: opt.ws, StoreDir: opt.storePath}, nil
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code and streams surfaced; the shared frame
// keeps the one-line, 0/1/2 exit contract.
func run(args []string, stdout, stderr io.Writer) int {
	return command(new(options)).Main(args, stdout, stderr)
}

// footprint runs the per-scheme workloads and renders the Figure 3 table
// (and CSV). Observability (rec may be nil) is out-of-band.
func (opt *options) footprint(rec *obs.Rec, stdout, stderr io.Writer) (err error) {
	store, finish, err := lab.OpenForRun(opt.storePath, rec, stderr)
	if err != nil {
		return err
	}
	defer finish(&err)
	results, err := bench.RunManyObserved(opt.ws, opt.workers, store, rec)
	if err != nil {
		return err
	}
	names := opt.schemes
	series := map[string]map[int]uint64{}
	allOps := map[int]bool{}
	for i, scheme := range names {
		series[scheme] = map[int]uint64{}
		for _, s := range results[i].Footprint {
			series[scheme][s.AfterOps] = s.Live
			allOps[s.AfterOps] = true
		}
	}

	var xs []int
	for x := range allOps {
		xs = append(xs, x)
	}
	sort.Ints(xs)

	var out strings.Builder
	fmt.Fprintf(&out, "%-10s", "ops")
	for _, n := range names {
		fmt.Fprintf(&out, " %8s", n)
	}
	out.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&out, "%-10d", x)
		for _, n := range names {
			fmt.Fprintf(&out, " %8d", series[n][x])
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(stdout, "Figure 3: allocated-but-not-freed nodes, lazy list, %d threads, 100%% updates\n", opt.ws[0].Threads)
	fmt.Fprint(stdout, out.String())

	if opt.csvPath != "" {
		f, err := os.Create(opt.csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "ops,"+strings.Join(names, ","))
		for _, x := range xs {
			row := make([]string, 0, len(names)+1)
			row = append(row, fmt.Sprint(x))
			for _, n := range names {
				row = append(row, fmt.Sprint(series[n][x]))
			}
			fmt.Fprintln(f, strings.Join(row, ","))
		}
	}
	return nil
}
