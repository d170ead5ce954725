package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/scenario"
)

// storeKind says how a workload's passes use the lab store.
type storeKind int

const (
	noStore    storeKind = iota // cold trials, no store
	warmStore                   // every job hits a store set-up filled
	mixedStore                  // every other job hits; the rest simulate and put
)

// storeReplicas is the store grid's trials per cell. The tests shrink it,
// which changes the job list and so the digest.
const storeReplicas = 200

// workloadSpec names a workload and how to build its job list.
type workloadSpec struct {
	name  string
	store storeKind
	jobs  func(seed uint64, storeReplicas int) ([]job, error)
}

var workloads = []workloadSpec{
	{name: "sim-figure", store: noStore, jobs: figureJobs},
	{name: "scenario-tail", store: noStore, jobs: scenarioJobs},
	{name: "store-warm", store: warmStore, jobs: storeJobs},
	{name: "store-mixed", store: mixedStore, jobs: storeJobs},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// job is one trial of a workload: a stationary Workload, or a scenario
// trial when sw is set.
type job struct {
	w  bench.Workload
	sw *bench.ScenarioWorkload
}

// trial is one executed job's simulated output. res is the whole-trial
// Result (a scenario's embedded one); scen, when set, is the full scenario
// result, which the digest covers instead.
type trial struct {
	res  bench.Result
	scen *bench.ScenarioResult
}

// call names the Runner method the job runs through, for its span.
func (j job) call() string {
	if j.sw != nil {
		return "bench.Runner.RunScenario"
	}
	return "bench.Runner.Run"
}

func (j job) run(r *bench.Runner) (trial, error) {
	if j.sw != nil {
		sres, err := r.RunScenario(*j.sw)
		return trial{res: sres.Result, scen: &sres}, err
	}
	res, err := r.Run(j.w)
	return trial{res: res}, err
}

// sweepJobs expands cfg into its canonical job list.
func sweepJobs(cfg bench.SweepConfig) ([]job, error) {
	ws, err := bench.ShardWorkloads(cfg, 0, 1)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(ws))
	for i, w := range ws {
		jobs[i] = job{w: w}
	}
	return jobs, nil
}

// figureJobs is the paper's Figure 1-2 grid at reduced scale: four
// structures at their paper key ranges, {ca, rcu, hp} x threads {1, 8} x
// updates {10, 100}, 1000 ops per thread.
func figureJobs(seed uint64, _ int) ([]job, error) {
	var jobs []job
	for _, g := range []struct {
		ds      string
		keys    uint64
		buckets int
	}{{"list", 1000, 0}, {"bst", 10000, 0}, {"hash", 1000, 128}, {"stack", 1000, 0}} {
		js, err := sweepJobs(bench.SweepConfig{
			DS: g.ds, Schemes: []string{"ca", "rcu", "hp"},
			Threads: []int{1, 8}, Updates: []int{10, 100},
			KeyRange: g.keys, Ops: 1000, Buckets: g.buckets,
			Seed: seed, Trials: 1,
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	return jobs, nil
}

// scenarioJobs runs three phased presets on list and hmlist with {ca, rcu,
// hp} at 8 threads, default SMR options, tails and timelines recorded.
func scenarioJobs(seed uint64, _ int) ([]job, error) {
	var jobs []job
	for _, name := range []string{scenario.PresetChurnDrain, scenario.PresetMixedRole, scenario.PresetReadBurst} {
		sc, err := scenario.Preset(name)
		if err != nil {
			return nil, err
		}
		for _, ds := range []string{"list", "hmlist"} {
			for _, scheme := range []string{"ca", "rcu", "hp"} {
				jobs = append(jobs, job{sw: &bench.ScenarioWorkload{
					DS: ds, Scheme: scheme, Threads: 8, KeyRange: 1000, Seed: seed,
					RecordTail: true, RecordTimeline: true,
					Scenario: sc,
				}})
			}
		}
	}
	return jobs, nil
}

// storeJobs is the grid of tiny trials both store workloads share: list,
// key range 32, 40 ops, {ca, rcu} x threads {1, 2} x updates {0, 50, 100},
// once without and once with tail recording so payload sizes vary.
func storeJobs(seed uint64, replicas int) ([]job, error) {
	var jobs []job
	for _, tail := range []bool{false, true} {
		js, err := sweepJobs(bench.SweepConfig{
			DS: "list", Schemes: []string{"ca", "rcu"},
			Threads: []int{1, 2}, Updates: []int{0, 50, 100},
			KeyRange: 32, Ops: 40,
			Seed: seed, Trials: replicas, RecordTail: tail,
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	return jobs, nil
}

// fixture is a workload after set-up: its job list, the Runner that
// executes it, and, for the store workloads, the stores a pass uses and the
// digests of the results set-up simulated.
type fixture struct {
	spec   workloadSpec
	jobs   []job
	runner *bench.Runner

	dir      string   // store a pass opens
	template string   // store-mixed: the half-filled store each pass starts from
	refs     []digest // store workloads: per-job digests of set-up's results
}

// setup builds a fixture in a fresh Runner. Sim workloads run one warm-up
// trial per (structure, thread count) so machine and heap allocation is
// paid here, not in the first pass. Store workloads simulate every job,
// putting all of them (store-warm) or every other one (store-mixed) into a
// fresh store under work, and keep each result's digest as the reference
// the measured passes are checked against.
func setup(spec workloadSpec, seed uint64, replicas int, work string) (*fixture, error) {
	jobs, err := spec.jobs(seed, replicas)
	if err != nil {
		return nil, err
	}
	f := &fixture{spec: spec, jobs: jobs, runner: &bench.Runner{}}
	if spec.store == noStore {
		type geometry struct {
			ds      string
			threads int
		}
		warmed := map[geometry]bool{}
		for _, j := range jobs {
			k := geometry{j.w.DS, j.w.Threads}
			if j.sw != nil {
				k = geometry{j.sw.DS, j.sw.Threads}
			}
			if warmed[k] {
				continue
			}
			warmed[k] = true
			if _, err := j.run(f.runner); err != nil {
				return nil, fmt.Errorf("set-up warm-up trial: %w", err)
			}
		}
		return f, nil
	}

	filled := filepath.Join(work, "setup")
	if err := os.RemoveAll(filled); err != nil {
		return nil, err
	}
	st, err := lab.Open(filled)
	if err != nil {
		return nil, err
	}
	var enc digester
	f.refs = make([]digest, len(jobs))
	for i, j := range jobs {
		f.runner.Store = nil
		if spec.store == warmStore || i%2 == 0 {
			f.runner.Store = st
		}
		t, err := j.run(f.runner)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("set-up trial %d: %w", i, err)
		}
		if f.refs[i], err = enc.sum(t); err != nil {
			st.Close()
			return nil, err
		}
	}
	f.runner.Store = nil
	if err := st.Close(); err != nil {
		return nil, err
	}
	if spec.store == warmStore {
		f.dir = filled
	} else {
		f.template, f.dir = filled, filepath.Join(work, "pass")
	}
	return f, nil
}

// passResult is one closed-loop pass over the job list.
type passResult struct {
	wall    time.Duration
	trialNs []int64
	trials  []trial
	errs    []error
	hit     []bool // served from the store, not simulated

	// The simulated counts summed over every trial, and the ops and cache
	// accesses of the trials this pass simulated.
	counts              counts
	simOps, simAccesses uint64

	// Store workloads: the handle's open and close times and its counters,
	// read after Close.
	open, close time.Duration
	lab         lab.StoreStats

	// Heap allocation over the timed window, when the pass measures it.
	mallocs, allocBytes uint64
	gcs                 uint32
}

// pass runs every job once, in order, each starting when the previous one
// returned. Store workloads open the store first and close it last, inside
// the timed window; store-mixed first restores its pass store from the
// template, outside it. A trial error is recorded and the pass goes on; a
// store that fails to open or close fails the pass. With measureMem the
// pass also reads the heap counters at both ends of its timed window.
func (f *fixture) pass(tr *tracer, measureMem bool) (*passResult, error) {
	if f.template != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			return nil, err
		}
		if err := copyTree(f.template, f.dir); err != nil {
			return nil, fmt.Errorf("restoring the pass store: %w", err)
		}
	}
	p := &passResult{
		trialNs: make([]int64, len(f.jobs)),
		trials:  make([]trial, len(f.jobs)),
		errs:    make([]error, len(f.jobs)),
		hit:     make([]bool, len(f.jobs)),
	}
	var m0, m1 runtime.MemStats
	if measureMem {
		runtime.ReadMemStats(&m0)
	}
	root := tr.begin("pass", -1, -1)
	start := time.Now()
	var st *lab.Store
	if f.spec.store != noStore {
		s := tr.begin("lab.Open", root, -1)
		var err error
		st, err = lab.Open(f.dir)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		p.open = time.Since(start)
		f.runner.Store = st
	}
	var prevHits uint64
	for i, j := range f.jobs {
		s := tr.begin(j.call(), root, i)
		t0 := time.Now()
		p.trials[i], p.errs[i] = j.run(f.runner)
		p.trialNs[i] = int64(time.Since(t0))
		tr.end(s)
		tr.commit(p.errs[i])
		if st != nil {
			hits := st.Stats().Hits
			p.hit[i] = hits > prevHits
			prevHits = hits
		}
	}
	if st != nil {
		f.runner.Store = nil
		s := tr.begin("lab.Store.Close", root, -1)
		t0 := time.Now()
		err := st.Close()
		p.close = time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		p.lab = st.Stats()
	}
	p.wall = time.Since(start)
	tr.end(root)
	if measureMem {
		runtime.ReadMemStats(&m1)
		p.mallocs, p.allocBytes, p.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	}
	return p, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
