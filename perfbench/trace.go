package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"condaccess/internal/obs"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the traced phase began; parent is the index of the
// enclosing span (-1 for a pass) and trial the job index (-1 outside a
// trial).
type span struct {
	name       string
	start, end int64
	parent     int
	trial      int
}

// tracer is the traced run's recorder: spans around the benchmark's own
// calls, kept in memory and written out at the end, plus the Runner's
// per-trial phase recorder. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	rec   *obs.Rec
	wr    *obs.WorkerRec
}

func newTracer(workload string) *tracer {
	rec := obs.New(obs.Config{Tool: "perfbench"})
	rec.AddPoints([]string{workload}, 0)
	return &tracer{t0: time.Now(), rec: rec, wr: rec.Worker(0)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, trial int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, trial: trial})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// commit folds the Runner's phase spans of the trial just run into the
// recorder.
func (t *tracer) commit(err error) {
	if t == nil {
		return
	}
	if err != nil {
		t.wr.Abandon()
		return
	}
	t.wr.Commit(0)
}

// phases returns the Runner's accumulated per-phase host time.
func (t *tracer) phases() obs.SpanNanos {
	return t.rec.Manifest().SpanNanos
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"trial\":%d}\n",
			s.name, s.start, s.end, s.parent, s.trial)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf attributes one CPU sample, leaf frame first, to a layer named
// after the repository's packages: GC work by any frame on the stack,
// otherwise the leaf's package. internal/sim, iter and the runtime's
// coroutine switch make up "sim"; encoding/json and the reflection it
// drives make up "json"; system calls and the os and poll packages around
// them make up "syscall". Everything else (runtime allocation and
// scheduling, the benchmark itself) is "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	leaf := stack[0]
	for _, l := range []string{"cache", "core", "sim", "smr", "mem", "latency", "trace", "lab", "bench"} {
		if strings.HasPrefix(leaf, "condaccess/internal/"+l+".") {
			return l
		}
	}
	switch {
	case strings.HasPrefix(leaf, "condaccess/internal/ds/"):
		return "ds"
	case strings.HasPrefix(leaf, "iter."), strings.HasPrefix(leaf, "runtime.coro"):
		return "sim"
	case strings.HasPrefix(leaf, "encoding/json."), strings.HasPrefix(leaf, "reflect."):
		return "json"
	case strings.HasPrefix(leaf, "crypto/") && strings.Contains(leaf, "sha256"):
		return "sha256"
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/poll."),
		strings.HasPrefix(leaf, "internal/syscall/"), strings.HasPrefix(leaf, "os."):
		return "syscall"
	case strings.HasPrefix(leaf, "runtime."):
		for _, fn := range stack {
			if fn == "runtime.coroswitch" {
				return "sim"
			}
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBuf"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileLayers buckets the flat CPU time of a profile by layer, using the
// toolchain's `go tool pprof -traces`. Samples labelled phase=check (the
// benchmark verifying results between passes) are left out.
func profileLayers(profile string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTraces(out.String())
}

// parseTraces reads `pprof -traces` output: blocks separated by
// "-----------+---" lines, each holding optional "key:  value" label lines,
// then the sample value and leaf frame, then one caller frame per line.
func parseTraces(text string) (map[string]time.Duration, error) {
	by := map[string]time.Duration{}
	blocks := strings.Split(text, "-----------+")
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // drop the rest of the separator line
		var (
			value time.Duration
			stack []string
			check bool
		)
		for _, ln := range lines {
			f := strings.Fields(ln)
			if len(f) == 0 {
				continue
			}
			switch {
			case stack == nil && strings.HasSuffix(f[0], ":"):
				if f[0] == "phase:" && len(f) > 1 && f[1] == "check" {
					check = true
				}
			case stack == nil:
				d, err := parseSampleValue(f[0])
				if err != nil {
					return nil, err
				}
				if len(f) < 2 {
					return nil, fmt.Errorf("pprof traces: sample %q has no frame", ln)
				}
				value, stack = d, []string{f[1]}
			default:
				stack = append(stack, f[0])
			}
		}
		if stack != nil && !check {
			by[layerOf(stack)] += value
		}
	}
	return by, nil
}

// parseSampleValue reads a pprof duration such as "10ms", "1.20s" or
// "1.50mins".
func parseSampleValue(s string) (time.Duration, error) {
	for unit, scale := range map[string]float64{"mins": 60, "hrs": 3600} {
		if v, ok := strings.CutSuffix(s, unit); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof traces: sample value %q: %w", s, err)
			}
			return time.Duration(f * scale * float64(time.Second)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: sample value %q: %w", s, err)
	}
	return d, nil
}
