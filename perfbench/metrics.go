package main

import (
	"slices"
	"sort"
	"syscall"
	"time"

	"condaccess/internal/bench"
)

// endToEnd fills the untraced run's metrics.
func endToEnd(rep *report, setupSecs []float64, ph phaseRun) {
	rep.set("setup_s", median(setupSecs), "s", len(setupSecs))
	walls := passWalls(ph)
	wall := median(walls)
	rep.set("wall_s", wall, "s", len(walls))
	rep.set("sim_ops_per_s", float64(ph.passes[0].counts.ops)/wall, "op/s", len(walls))
	// Trial percentiles are taken within each pass and reported as their
	// median over passes.
	var p50, p99 []float64
	samples := 0
	for _, p := range ph.passes {
		ts := make([]float64, len(p.trialNs))
		for i, ns := range p.trialNs {
			ts[i] = float64(ns) / 1e3
		}
		sort.Float64s(ts)
		p50 = append(p50, quantile(ts, 0.50))
		p99 = append(p99, quantile(ts, 0.99))
		samples += len(ts)
	}
	rep.set("trial_us_p50", median(p50), "us", samples)
	rep.set("trial_us_p99", median(p99), "us", samples)
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 1)
}

func passWalls(ph phaseRun) []float64 {
	walls := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		walls[i] = p.wall.Seconds()
	}
	return walls
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts are the exact simulated counts of a pass's trials, summed (peak
// live nodes: the largest of any trial).
type counts struct {
	ops, cycles, retries, accesses, l1Misses, coherence   uint64
	creads, creadFails, scans, freed, retired, nodeAllocs uint64
	peakLive                                              uint64
}

func countTrials(ts []trial) counts {
	var c counts
	for _, t := range ts {
		r := t.res
		c.ops += r.Ops
		c.cycles += r.Cycles
		c.retries += r.Retries
		c.accesses += accesses(r)
		c.l1Misses += r.Cache.L1Misses
		c.coherence += r.Cache.Invalidations + r.Cache.RemoteFwds + r.Cache.Upgrades + r.Cache.BackInvals
		c.creads += r.CA.CReads
		c.creadFails += r.CA.CReadFails
		c.scans += r.SMR.Scans
		c.freed += r.SMR.Freed
		c.retired += r.SMR.Retired
		c.nodeAllocs += r.Mem.NodeAllocs
		c.peakLive = max(c.peakLive, r.Mem.PeakLive)
	}
	return c
}

// accesses counts a trial's simulated cache accesses (prefill included, as
// Result.Cache is).
func accesses(r bench.Result) uint64 { return r.Cache.L1Hits + r.Cache.L1Misses }

// selfPerOp and selfPerTrial name the layers whose self time is reported per
// simulated op and per trial.
var (
	selfPerOp    = []string{"cache", "core", "sim", "smr", "mem", "ds", "latency", "trace"}
	selfPerTrial = []string{"lab", "json", "sha256", "syscall", "gc", "bench"}
)

// cpuSample is the CPU profiler's sampling period.
const cpuSample = 10 * time.Millisecond

// perLayer fills the traced run's metrics: exact simulated counts from one
// pass's results, heap and lab counters from the untraced half, self time
// by layer and the Runner's phase times from the traced half.
func perLayer(rep *report, untraced, traced phaseRun, tr *tracer, layerTime map[string]time.Duration) {
	first := untraced.passes[0]
	c, n := first.counts, len(first.trialNs)
	ops, acc := float64(c.ops), float64(c.accesses)
	rep.set("cache.accesses_per_op", ratio(acc, ops), "1/op", n)
	rep.set("cache.l1_miss_ratio", ratio(float64(c.l1Misses), acc), "ratio", n)
	rep.set("cache.coherence_per_op", ratio(float64(c.coherence), ops), "1/op", n)
	rep.set("core.creads_per_op", ratio(float64(c.creads), ops), "1/op", n)
	rep.set("core.cread_fail_ratio", ratio(float64(c.creadFails), float64(c.creads)), "ratio", n)
	rep.set("smr.scans_per_op", ratio(float64(c.scans), ops), "1/op", n)
	rep.set("smr.freed_per_retired", ratio(float64(c.freed), float64(c.retired)), "ratio", n)
	rep.set("mem.allocs_per_op", ratio(float64(c.nodeAllocs), ops), "1/op", n)
	rep.set("mem.peak_live_nodes", float64(c.peakLive), "count", n)
	rep.set("ds.retries_per_op", ratio(float64(c.retries), ops), "1/op", n)
	rep.set("sim.cycles_per_op", ratio(float64(c.cycles), ops), "cycles/op", n)

	// Self time by layer, and the Runner's phases, over the traced passes.
	var simOps, simAcc, trials float64
	for _, p := range traced.passes {
		simOps += float64(p.simOps)
		simAcc += float64(p.simAccesses)
		trials += float64(len(p.trialNs))
	}
	for _, l := range selfPerOp {
		d := layerTime[l]
		rep.set(l+".self_ns_per_op", ratio(float64(d), simOps), "ns/op", int(d/cpuSample))
	}
	for _, l := range selfPerTrial {
		d := layerTime[l]
		rep.set(l+".self_us_per_trial", ratio(float64(d)/1e3, trials), "us/trial", int(d/cpuSample))
	}
	ph := tr.phases()
	nt := int(trials)
	rep.set("sim.host_ns_per_access", ratio(float64(ph.SimulateNanos), simAcc), "ns/access", nt)
	rep.set("bench.prepare_us_per_trial", ratio(float64(ph.PrepareNanos)/1e3, trials), "us/trial", nt)
	rep.set("bench.lookup_us_per_trial", ratio(float64(ph.LookupNanos)/1e3, trials), "us/trial", nt)
	rep.set("bench.simulate_ms_per_trial", ratio(float64(ph.SimulateNanos)/1e6, trials), "ms/trial", nt)
	rep.set("bench.store_us_per_trial", ratio(float64(ph.StoreNanos)/1e3, trials), "us/trial", nt)

	// Heap and lab counters over the untraced passes.
	var mallocs, allocBytes, gcs, utrials float64
	var open, closeT, indexLoad, flush, fsync []float64
	for _, p := range untraced.passes {
		mallocs += float64(p.mallocs)
		allocBytes += float64(p.allocBytes)
		gcs += float64(p.gcs)
		utrials += float64(len(p.trialNs))
		open = append(open, p.open.Seconds()*1e3)
		closeT = append(closeT, p.close.Seconds()*1e3)
		indexLoad = append(indexLoad, float64(p.lab.IndexLoadNanos)/1e6)
		flush = append(flush, float64(p.lab.FlushNanos)/1e6)
		fsync = append(fsync, float64(p.lab.FsyncNanos)/1e6)
	}
	np := len(untraced.passes)
	rep.set("bench.allocs_per_trial", ratio(mallocs, utrials), "1/trial", int(utrials))
	rep.set("bench.alloc_kb_per_trial", ratio(allocBytes/1024, utrials), "KiB/trial", int(utrials))
	rep.set("bench.gc_cycles", ratio(gcs, float64(np)), "1/pass", np)
	rep.set("lab.open_ms", median(open), "ms", np)
	rep.set("lab.close_ms", median(closeT), "ms", np)
	rep.set("lab.index_load_ms", median(indexLoad), "ms", np)
	rep.set("lab.flush_ms", median(flush), "ms", np)
	rep.set("lab.fsync_ms", median(fsync), "ms", np)
	s := first.lab
	rep.set("lab.flushes", float64(s.Flushes), "1/pass", np)
	rep.set("lab.bytes_per_put", ratio(float64(s.BytesWritten), float64(s.Puts)), "B/put", np)
	rep.set("lab.opens_per_pass", float64(s.Opens), "1/pass", np)
	rep.set("lab.hit_ratio", ratio(float64(s.Hits), float64(s.Hits+s.Misses)), "ratio", np)

	tw, uw := passWalls(traced), passWalls(untraced)
	rep.set("traced.overhead_pct", (ratio(median(tw), median(uw))-1)*100, "%", len(tw)+len(uw))
	rep.set("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Attempted)
}
