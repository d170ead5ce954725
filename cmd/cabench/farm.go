// Farm mode: multi-process sharded sweep execution.
//
// A sweep is a flat list of deterministic, independent trials, so it splits
// across processes by partitioning that list (bench.ShardWorkloads). A worker
// (`-shard I/N`) runs its jobs into a private store and renders nothing; the
// coordinator (`-farm N`) spawns N workers over private stores under
// <store>/shards, merges them into the main store (lab.Merge), and then runs
// the ordinary sweep path against the merged store — every trial warm, zero
// simulator work, and stdout byte-identical to the single-process run by
// construction, because it IS the single-process path.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"condaccess/internal/bench"
	"condaccess/internal/lab"
	"condaccess/internal/obs"
)

// shardRun executes one shard of the sweep's job list into the store. No
// table is rendered — the store (plus the run manifest) is the output.
func shardRun(opt options, rec *obs.Rec, stdout, stderr io.Writer) (err error) {
	store, finish, err := lab.OpenForRun(opt.storePath, rec, stderr)
	if err != nil {
		return err
	}
	defer finish(&err)
	ws, err := bench.ShardWorkloads(opt.cfg, opt.shardIdx, opt.shardOf)
	if err != nil {
		return err
	}
	if _, err := bench.RunManyObserved(ws, opt.cfg.Workers, store, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "shard %d/%d: %d trials done\n", opt.shardIdx, opt.shardOf, len(ws))
	return nil
}

// shardDir places shard i's private store under the main store root. The
// store only claims segments/ and runs/, so shards/ rides along
// without confusing any reader.
func shardDir(storePath string, i, n int) string {
	return filepath.Join(storePath, "shards", fmt.Sprintf("%d-of-%d", i, n))
}

// farmRun coordinates a sharded sweep: spawn one worker process per shard,
// collect their manifests into per-shard rollups, merge the shard stores
// into the main store, and render by re-running the ordinary sweep path
// against it — fully warm, so the output is the sequential output.
func farmRun(opt options, rec *obs.Rec, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	n := opt.farm
	outs := make([]bytes.Buffer, n) // combined worker output, shown only on failure
	werrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(exe, workerArgs(opt, i, n)...)
			cmd.Stdout = &outs[i]
			cmd.Stderr = &outs[i]
			werrs[i] = cmd.Run()
		}(i)
	}
	wg.Wait()
	rec.SetShards(shardRollups(opt, n, werrs))
	// First failed shard (by index) wins, echoing the sweep paths'
	// first-error semantics. Completed shards' stores stay on disk: a re-run
	// heals the gap warm.
	for i, werr := range werrs {
		if werr != nil {
			return fmt.Errorf("farm: shard %d/%d: %s", i, n, workerFailure(outs[i].Bytes(), werr))
		}
	}
	if err := mergeShards(opt, n, stderr); err != nil {
		return err
	}
	seq := opt
	seq.farm = 0
	return sweep(seq, rec, stdout, stderr)
}

// mergeShards folds the N shard stores into the main store.
func mergeShards(opt options, n int, stderr io.Writer) (err error) {
	dst, err := lab.Open(opt.storePath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}()
	srcs := make([]*lab.Store, n)
	for i := range srcs {
		// oerr, not err: the deferred closures must see the function's named
		// return, not a loop-scoped shadow.
		src, oerr := lab.OpenExisting(shardDir(opt.storePath, i, n))
		if oerr != nil {
			return oerr
		}
		defer func() {
			if cerr := src.Close(); err == nil {
				err = cerr
			}
		}()
		srcs[i] = src
	}
	stats, err := lab.Merge(dst, srcs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "farm: merged %d shards, %d entries added (%d already present)\n",
		n, stats.Added, stats.Skipped)
	return nil
}

// shardRollups distills each worker's manifest into the coordinator
// manifest's per-shard summary. A worker that died before writing one (or
// wrote an unreadable one) still gets a rollup carrying its process error.
func shardRollups(opt options, n int, werrs []error) []obs.ShardRollup {
	rollups := make([]obs.ShardRollup, n)
	for i := range rollups {
		r := obs.ShardRollup{Shard: i}
		if werrs[i] != nil {
			r.Error = werrs[i].Error()
		}
		m, err := obs.ReadManifest(filepath.Join(shardDir(opt.storePath, i, n), "manifest.json"))
		if err == nil {
			r.RunID = m.RunID
			r.Trials = m.TrialsDone
			r.Warm = m.WarmHits
			r.WallNanos = m.WallNanos
			r.SpanNanos = m.SpanNanos
			if m.Error != "" {
				r.Error = m.Error
			}
		}
		rollups[i] = r
	}
	return rollups
}

// workerArgs builds shard i's command line from the flags the user set:
// every one is forwarded verbatim except the coordinator-only flags, so a
// worker keys its entries exactly as the warm coordinator re-run looks them
// up. Denying rather than allowing fails safe: no trial-shaping flag can be
// left behind to key the shards differently and turn the render cold.
func workerArgs(opt options, i, n int) []string {
	var args []string
	opt.set.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "farm", "store", "manifest", "progress", "events", "cpuprofile", "memprofile", "exectrace", "csv", "v":
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	dir := shardDir(opt.storePath, i, n)
	return append(args, "-shard", fmt.Sprintf("%d/%d", i, n), "-store", dir, "-manifest", filepath.Join(dir, "manifest.json"))
}

// workerFailure condenses a failed worker's captured output into the
// coordinator's one-line error: the worker's own error line when it printed
// one, the process error otherwise.
func workerFailure(out []byte, werr error) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if line := strings.TrimSpace(lines[i]); line != "" {
			return fmt.Sprintf("%s (%v)", line, werr)
		}
	}
	return werr.Error()
}
