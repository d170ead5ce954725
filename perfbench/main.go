// Command perfbench is the repository's benchmark. It runs one named
// workload in a closed loop with one client for a fixed time, checks every
// simulated result, and prints its metrics as one JSON line: the end-to-end
// metrics untraced (-trace 0), or the per-layer metrics from a traced run
// (-trace 1). README.md in this directory describes the workloads, the
// metrics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload sim-figure --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"time"
)

// defaultSeed is the seed the pinned digests in pins.json belong to.
const defaultSeed = 1

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	replicas int // store grid trials per cell
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples counts the measurements behind each metric, for the table on
	// standard error.
	samples map[string]int
}

func (r *report) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

// run is main with its exit code and streams surfaced: 0 with a result
// line, 2 for a bad command line, 1 when the benchmark cannot run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{replicas: storeReplicas}
	fs.StringVar(&o.workload, "workload", "", "workload: sim-figure, scenario-tail, store-warm or store-mixed")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for stores, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	o.trace = *traceFlag == 1
	rep, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// labelled runs fn under the pprof labels workload and phase.
func labelled(workload, phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "phase", phase), func(context.Context) { fn() })
}

// phaseRun is the passes of one measured phase.
type phaseRun struct {
	passes   []*passResult
	failed   int
	attempts int
}

// measure runs passes until budget has elapsed (at least one), checking
// each pass's results between passes, outside its timed window.
func measure(f *fixture, c *checker, tr *tracer, budget time.Duration, measureMem bool) (phaseRun, error) {
	var ph phaseRun
	start := time.Now()
	for len(ph.passes) == 0 || time.Since(start) < budget {
		var (
			p   *passResult
			err error
		)
		labelled(f.spec.name, "measure", func() { p, err = f.pass(tr, measureMem) })
		if err != nil {
			return ph, err
		}
		var failed int
		labelled(f.spec.name, "check", func() { failed, err = c.check(p) })
		if err != nil {
			return ph, err
		}
		ph.failed += failed
		ph.attempts += len(p.trialNs)
		p.counts = countTrials(p.trials)
		for i, t := range p.trials {
			if !p.hit[i] {
				p.simOps += t.res.Ops
				p.simAccesses += accesses(t.res)
			}
		}
		p.trials = nil // the results are checked; only their counts stay
		ph.passes = append(ph.passes, p)
	}
	return ph, nil
}

func execute(o options, stderr io.Writer) (*report, error) {
	spec, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(o.out, spec.name)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times from scratch; the last fixture is measured.
	var (
		f         *fixture
		setupSecs []float64
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var next *fixture
		labelled(spec.name, "setup", func() { next, err = setup(spec, o.seed, o.replicas, work) })
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		if f != nil && !slices.Equal(f.refs, next.refs) {
			return nil, fmt.Errorf("%s set-up: results differ between set-ups", spec.name)
		}
		f = next
	}
	c := &checker{refs: slices.Clone(f.refs)}

	rep := &report{Metrics: map[string]metric{}, samples: map[string]int{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	var untraced, traced phaseRun
	var tr *tracer
	var layerTime map[string]time.Duration
	if !o.trace {
		if untraced, err = measure(f, c, nil, budget, false); err != nil {
			return nil, err
		}
	} else {
		if untraced, err = measure(f, c, nil, budget/2, true); err != nil {
			return nil, err
		}
		tr = newTracer(spec.name)
		f.runner.Obs = tr.wr
		profile := filepath.Join(work, "cpu.pprof")
		pf, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return nil, err
		}
		traced, err = measure(f, c, tr, budget/2, false)
		pprof.StopCPUProfile()
		f.runner.Obs = nil
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if layerTime, err = profileLayers(profile); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(work, "spans.jsonl")); err != nil {
			return nil, err
		}
	}

	rep.Attempted = untraced.attempts + traced.attempts
	rep.Failed = untraced.failed + traced.failed
	rep.Correct = rep.Failed == 0
	for _, problem := range verify(spec, o.seed, c, untraced, traced) {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", spec.name, problem)
		rep.Correct = false
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d digest %s (%d trials per pass)\n",
		spec.name, o.seed, workloadDigest(c.refs), len(f.jobs))

	if !o.trace {
		endToEnd(rep, setupSecs, untraced)
	} else {
		perLayer(rep, untraced, traced, tr, layerTime)
	}
	return rep, nil
}

// verify returns every correctness problem beyond failed trials: a digest
// that differs from its pin, a store-warm pass that simulated, and lab
// counters that did not repeat exactly from pass to pass.
func verify(spec workloadSpec, seed uint64, c *checker, runs ...phaseRun) []string {
	var problems []string
	pin, ok, err := pinnedDigest(spec.name, seed)
	if err != nil {
		problems = append(problems, err.Error())
	} else if got := workloadDigest(c.refs).String(); ok && got != pin {
		problems = append(problems, fmt.Sprintf("digest %s, pinned %s", got, pin))
	}
	if spec.store == noStore {
		return problems
	}
	var first *passResult
	for _, ph := range runs {
		for _, p := range ph.passes {
			if spec.store == warmStore && p.lab.Misses != 0 {
				problems = append(problems, fmt.Sprintf("%d store misses in a warm pass", p.lab.Misses))
			}
			if first == nil {
				first = p
			} else if labCounts(p) != labCounts(first) {
				problems = append(problems, fmt.Sprintf("lab counters %v, first pass %v", labCounts(p), labCounts(first)))
			}
		}
	}
	return problems
}

// labCounts are the store counters that must repeat exactly every pass.
func labCounts(p *passResult) [6]uint64 {
	s := p.lab
	return [6]uint64{s.Hits, s.Misses, s.Puts, s.Opens, s.Flushes, s.BytesWritten}
}

// printTable writes every metric with its unit and sample count.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
}
