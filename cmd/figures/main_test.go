package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"condaccess/internal/obs"
)

// parseArgs parses and resolves a command line the way run does, without
// running it.
func parseArgs(args []string, stderr io.Writer) (opt options, err error) {
	_, err = command(&opt).Parse(args, stderr)
	return opt, err
}

func TestParseArgsDefaults(t *testing.T) {
	opt, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.g
	if g.out != "results" || g.seed != 1 || g.check {
		t.Errorf("unexpected defaults: %+v", g)
	}
	if !reflect.DeepEqual(g.threads, []int{1, 2, 4, 8, 16, 32}) {
		t.Errorf("full-scale threads = %v", g.threads)
	}
	if g.ops != 3000 || g.trials != 3 || g.memOps != 5000 {
		t.Errorf("full scale = ops %d / trials %d / memOps %d, want 3000/3/5000", g.ops, g.trials, g.memOps)
	}
	if opt.fig != "all" || opt.storePath != "" {
		t.Errorf("fig/store defaults: %+v", opt)
	}
	if g.workers < 1 {
		t.Errorf("workers default %d", g.workers)
	}
}

func TestParseArgsQuickScale(t *testing.T) {
	opt, err := parseArgs([]string{"-quick"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.g
	if !reflect.DeepEqual(g.threads, []int{1, 4, 16, 32}) {
		t.Errorf("quick threads = %v", g.threads)
	}
	if g.ops != 800 || g.trials != 1 || g.memOps != 2000 {
		t.Errorf("quick scale = ops %d / trials %d / memOps %d, want 800/1/2000", g.ops, g.trials, g.memOps)
	}
}

func TestParseArgsTrialsOverride(t *testing.T) {
	opt, err := parseArgs([]string{"-quick", "-trials", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.g.trials != 5 {
		t.Errorf("-trials override lost: %d", opt.g.trials)
	}
}

func TestParseArgsFigAndStore(t *testing.T) {
	opt, err := parseArgs([]string{"-fig", "fig3mem", "-store", "results/store", "-out", "o", "-seed", "9"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.fig != "fig3mem" || opt.storePath != "results/store" || opt.g.out != "o" || opt.g.seed != 9 {
		t.Errorf("overrides not applied: %+v", opt)
	}
}

func TestParseArgsUnknownFig(t *testing.T) {
	_, err := parseArgs([]string{"-fig", "fig9nope"}, io.Discard)
	if err == nil {
		t.Fatal("unknown -fig accepted (it used to silently run nothing)")
	}
	if !strings.Contains(err.Error(), "fig9nope") {
		t.Errorf("error %q does not name the bad figure", err)
	}
}

func TestParseArgsBadFlagIsReported(t *testing.T) {
	var buf strings.Builder
	_, err := parseArgs([]string{"-trials", "x"}, &buf)
	if err == nil {
		t.Fatal("bad -trials accepted")
	}
	var rep obs.ReportedError
	if !errors.As(err, &rep) {
		t.Errorf("flag-package error not marked reported: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("flag package printed nothing to stderr")
	}
}

func TestParseArgsHelp(t *testing.T) {
	_, err := parseArgs([]string{"-h"}, io.Discard)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestFigOrderCoversJobs: every figure named in the run order must stay
// listed in the -fig validation set (figOrder is the single source).
func TestFigOrderCoversJobs(t *testing.T) {
	for _, name := range []string{"fig1list", "fig3mem", "tuning", "smt", "hmlist"} {
		if _, err := parseArgs([]string{"-fig", name}, io.Discard); err != nil {
			t.Errorf("-fig %s rejected: %v", name, err)
		}
	}
}

// TestRunFailureModes pins the CLI error contract: every failure exits
// non-zero after exactly one line on stderr — no panic, no usage dump.
func TestRunFailureModes(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"unopenable store", []string{"-store", filepath.Join(plain, "store")}, 1},
		{"uncreatable output dir", []string{"-out", filepath.Join(plain, "results")}, 1},
		{"unknown figure", []string{"-fig", "nope"}, 2},
		{"unwritable CSV", []string{"-quick", "-fig", "tail", "-out", full}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "unwritable CSV" {
				fullCSV(t, full, "fig_tail_cdf.csv")
			}
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if got := stderr.String(); strings.Count(got, "\n") != 1 {
				t.Errorf("stderr is not exactly one line:\n%s", got)
			} else if strings.Contains(got, "Usage") || !strings.HasPrefix(got, "figures: ") {
				t.Errorf("stderr is not a bare one-line diagnosis:\n%s", got)
			}
		})
	}
}

// TestVersionFlag pins the shared -version contract: exit 0, one stdout
// line naming the tool and engine tag, nothing on stderr.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -version = %d (stderr %q)", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "figures ") || !strings.Contains(line, "engine ") {
		t.Errorf("version line = %q", line)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestFig3TableMatchesCamem pins the Figure 3 panel: at 200 ops per thread
// it opens with the heading and ops x scheme table the former standalone
// camem command printed for `camem -ops 200`, byte for byte.
func TestFig3TableMatchesCamem(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "camem_ops200.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	g := generator{out: t.TempDir(), seed: 1, memOps: 200, workers: 2, stdout: &stdout}
	if err := g.fig3mem(); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); !strings.HasPrefix(got, string(want)) {
		t.Errorf("fig3mem panel does not open with the camem table:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}
	csv, err := os.ReadFile(filepath.Join(g.out, "fig3_mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "scheme,ops,live_nodes\nnone,1000,752\n") {
		t.Errorf("fig3_mem.csv does not hold the table's numbers:\n%s", csv)
	}
}

// fullCSV points name in dir at /dev/full, so creating it succeeds and
// every write fails with ENOSPC.
func fullCSV(t *testing.T, dir, name string) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// TestEveryJobReportsCSVWriteError runs each figure job at a tiny scale
// into an output directory whose CSV for that job is /dev/full: every job
// must return the write error, none may drop it.
func TestEveryJobReportsCSVWriteError(t *testing.T) {
	for _, tc := range []struct {
		csv string
		job func(generator) error
	}{
		{"fig2_stack.csv", generator.fig2stack},
		{"fig3_mem.csv", generator.fig3mem},
		{"ablation_assoc.csv", generator.assoc},
		{"ablation_tuning.csv", generator.tuning},
		{"ablation_smt.csv", generator.smt},
		{"ext_hmlist.csv", generator.hmlist},
		{"fig_tail_cdf.csv", generator.tail},
		{"fig_timeline.csv", generator.timeline},
	} {
		t.Run(tc.csv, func(t *testing.T) {
			dir := t.TempDir()
			fullCSV(t, dir, tc.csv)
			g := generator{
				out: dir, seed: 1, threads: []int{2}, ops: 20, trials: 1,
				memOps: 100, workers: 2, stdout: io.Discard,
			}
			err := tc.job(g)
			if err == nil || !strings.Contains(err.Error(), tc.csv) {
				t.Errorf("job writing %s to /dev/full returned %v", tc.csv, err)
			}
		})
	}
}
