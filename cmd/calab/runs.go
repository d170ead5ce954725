// The runs subcommand reads the manifests the obs package writes: every
// instrumented cabench/cascenario/figures invocation drops a JSON run
// record (under <store>/runs by default), and calab is the reader —
// list an archive of runs, inspect one, or A/B two runs' timing rollups.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"condaccess/internal/obs"
)

// runs dispatches the three modes: -run inspects one manifest, -a/-b diff
// two, and plain -store lists the archive.
func runs(opt options, out io.Writer) error {
	switch {
	case opt.runID != "":
		path, err := resolveManifest(opt.runID, opt.store)
		if err != nil {
			return err
		}
		m, err := obs.ReadManifest(path)
		if err != nil {
			return err
		}
		printManifest(out, m)
		return nil
	case opt.a != "":
		return diffRuns(opt.a, opt.b, opt.store, out)
	default:
		return listRuns(opt.store, out)
	}
}

// resolveManifest maps a -run/-a/-b argument to a manifest path: anything
// that looks like a file (a path separator, a .json suffix, or an existing
// file) is used directly; otherwise it is a run id resolved in storeDir's
// runs/ directory.
func resolveManifest(arg, storeDir string) (string, error) {
	if strings.ContainsRune(arg, os.PathSeparator) || strings.HasSuffix(arg, ".json") {
		return arg, nil
	}
	if _, err := os.Stat(arg); err == nil {
		return arg, nil
	}
	if storeDir == "" {
		return "", fmt.Errorf("run id %q needs -store to resolve (or pass a manifest path)", arg)
	}
	return obs.ManifestPath(obs.RunsDir(storeDir), arg), nil
}

func listRuns(storeDir string, out io.Writer) error {
	dir := obs.RunsDir(storeDir)
	ms, err := obs.ListRuns(dir)
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		fmt.Fprintf(out, "no runs in %s\n", dir)
		return nil
	}
	fmt.Fprintf(out, "%-36s %-10s %-20s %10s %11s %5s\n",
		"run", "tool", "start", "wall", "trials", "warm")
	for _, m := range ms {
		mark := ""
		if m.Error != "" {
			mark = " !" // failed run; inspect it for the error
		}
		fmt.Fprintf(out, "%-36s %-10s %-20s %10s %5d/%-5d %4.0f%%%s\n",
			m.RunID, m.Tool, m.Start.UTC().Format("2006-01-02T15:04:05Z"),
			dur(m.WallNanos), m.TrialsDone, m.TrialsPlanned,
			pct(m.WarmHits, m.TrialsDone), mark)
	}
	return nil
}

// printManifest renders one run's full record in the inspect layout.
func printManifest(out io.Writer, m obs.Manifest) {
	fmt.Fprintf(out, "run %s\n", m.RunID)
	fmt.Fprintf(out, "  tool %s %s engine %s\n", m.Tool, m.Version, m.EngineTag)
	fmt.Fprintf(out, "  start %s, wall %s\n", m.Start.UTC().Format(time.RFC3339), dur(m.WallNanos))
	fmt.Fprintf(out, "  host %s %s/%s, %d cpus (gomaxprocs %d)\n",
		m.Host.Go, m.Host.OS, m.Host.Arch, m.Host.CPUs, m.Host.GOMAXPROCS)
	if len(m.Args) > 0 {
		fmt.Fprintf(out, "  args %s\n", strings.Join(m.Args, " "))
	}
	if m.Error != "" {
		fmt.Fprintf(out, "  error %s\n", m.Error)
	}
	fmt.Fprintf(out, "  trials %d/%d, %d warm (%.0f%%)\n",
		m.TrialsDone, m.TrialsPlanned, m.WarmHits, pct(m.WarmHits, m.TrialsDone))
	fmt.Fprintf(out, "  spans prepare %s, lookup %s, simulate %s, store %s\n",
		dur(m.PrepareNanos), dur(m.LookupNanos), dur(m.SimulateNanos), dur(m.StoreNanos))
	if s := m.Store; s != nil {
		fmt.Fprintf(out, "  store %d hits, %d misses, %d puts, %d flushes (%d B), flush %s, fsync %s, index load %s\n",
			s.Hits, s.Misses, s.Puts, s.Flushes, s.BytesWritten,
			dur(s.FlushNanos), dur(s.FsyncNanos), dur(s.IndexLoadNanos))
	}
	if len(m.Shards) > 0 {
		fmt.Fprintln(out, "  shards:")
		for _, s := range m.Shards {
			fmt.Fprintf(out, "    s%-3d trials %5d, warm %5d, wall %s, simulate %s (run %s)",
				s.Shard, s.Trials, s.Warm, dur(s.WallNanos), dur(s.SimulateNanos), s.RunID)
			if s.Error != "" {
				fmt.Fprintf(out, " error %s", s.Error)
			}
			fmt.Fprintln(out)
		}
	}
	if len(m.Workers) > 0 {
		fmt.Fprintln(out, "  workers:")
		for _, w := range m.Workers {
			fmt.Fprintf(out, "    w%-3d trials %5d, warm %5d, simulate %s, lookup %s\n",
				w.Worker, w.Trials, w.Warm, dur(w.SimulateNanos), dur(w.LookupNanos))
		}
	}
	if len(m.Points) > 0 {
		fmt.Fprintln(out, "  points:")
		for _, p := range m.Points {
			fmt.Fprintf(out, "    %-28s trials %5d, warm %5d, simulate %s, lookup %s\n",
				p.Label, p.Trials, p.Warm, dur(p.SimulateNanos), dur(p.LookupNanos))
		}
	}
}

// diffRuns prints the A/B table of two runs' whole-run rollups: identities,
// trial counts, and the per-phase spans with B/A ratios — the shape a
// before/after performance comparison reads off directly.
func diffRuns(argA, argB, storeDir string, out io.Writer) error {
	load := func(arg string) (obs.Manifest, error) {
		path, err := resolveManifest(arg, storeDir)
		if err != nil {
			return obs.Manifest{}, err
		}
		return obs.ReadManifest(path)
	}
	a, err := load(argA)
	if err != nil {
		return err
	}
	b, err := load(argB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s (%s), B = %s (%s)\n", a.RunID, a.Tool, b.RunID, b.Tool)
	if a.EngineTag != b.EngineTag {
		fmt.Fprintf(out, "engine differs: A %s, B %s\n", a.EngineTag, b.EngineTag)
	}
	fmt.Fprintf(out, "%-10s %14s %14s %8s\n", "", "A", "B", "B/A")
	row := func(name string, va, vb int64) {
		fmt.Fprintf(out, "%-10s %14s %14s %8s\n", name, dur(va), dur(vb), ratio(va, vb))
	}
	fmt.Fprintf(out, "%-10s %14s %14s\n", "trials",
		fmt.Sprintf("%d/%d", a.TrialsDone, a.TrialsPlanned),
		fmt.Sprintf("%d/%d", b.TrialsDone, b.TrialsPlanned))
	fmt.Fprintf(out, "%-10s %14d %14d\n", "warm", a.WarmHits, b.WarmHits)
	row("prepare", a.PrepareNanos, b.PrepareNanos)
	row("lookup", a.LookupNanos, b.LookupNanos)
	row("simulate", a.SimulateNanos, b.SimulateNanos)
	row("store", a.StoreNanos, b.StoreNanos)
	row("total", a.Total(), b.Total())
	row("wall", a.WallNanos, b.WallNanos)
	return nil
}

// dur renders a nanosecond count compactly (sub-millisecond noise rounded
// away above 1s).
func dur(n int64) string {
	d := time.Duration(n)
	if d >= time.Second {
		return d.Round(time.Millisecond).String()
	}
	return d.Round(time.Microsecond).String()
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// ratio renders B/A, or "-" when the baseline span is zero.
func ratio(a, b int64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(b)/float64(a))
}
