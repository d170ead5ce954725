package cache

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateTranscript = flag.Bool("update-transcript", false,
	"rewrite testdata/transcript.txt.gz from the current cache model")

const transcriptFile = "testdata/transcript.txt.gz"

// access is one step of a transcript trace: a load or a store by one
// hardware thread.
type access struct {
	tid   int
	write bool
	addr  uint64
}

// transcriptTrace is the fixed random trace the transcript golden replays:
// n accesses, 30% writes, spread over the threads of p. Most go to a
// 96-line working set per thread, so hits dominate as they do in trials; a
// tenth go to 32 lines every thread shares (upgrades, invalidations, remote
// forwards) and a tenth to a region twice the L2 (L2 misses, evictions and
// inclusive back-invalidations). A splitmix64 stream keeps the trace
// independent of any library generator.
func transcriptTrace(p Params, n int, seed uint64) []access {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	wide := uint64(2 * p.L2Bytes / lineBytes)
	trace := make([]access, n)
	for i := range trace {
		r := next()
		a := access{tid: int(r % uint64(p.Cores)), write: (r>>8)%100 < 30}
		word := (r >> 16) % (lineBytes / 8) * 8
		var line uint64
		switch k := (r >> 24) % 10; {
		case k < 8:
			line = uint64(a.tid)<<12 + (r>>32)%96
		case k < 9:
			line = 1<<16 + (r>>32)%32
		default:
			line = 1<<17 + (r>>32)%wide
		}
		a.addr = line<<lineShift + word
		trace[i] = a
	}
	return trace
}

// statDeltas names the Stats fields that moved between two snapshots, with
// the amount when it is not one. Applied in order from zero they rebuild the
// running Stats after every access, so the transcript pins them exactly.
func statDeltas(prev, cur Stats) string {
	var b strings.Builder
	for _, f := range []struct {
		name     string
		was, now uint64
	}{
		{"h", prev.L1Hits, cur.L1Hits},
		{"m", prev.L1Misses, cur.L1Misses},
		{"l2h", prev.L2Hits, cur.L2Hits},
		{"l2m", prev.L2Misses, cur.L2Misses},
		{"inv", prev.Invalidations, cur.Invalidations},
		{"fwd", prev.RemoteFwds, cur.RemoteFwds},
		{"up", prev.Upgrades, cur.Upgrades},
		{"ev", prev.L1Evictions, cur.L1Evictions},
		{"bi", prev.BackInvals, cur.BackInvals},
	} {
		if d := f.now - f.was; d != 0 {
			b.WriteByte(' ')
			b.WriteString(f.name)
			if d != 1 {
				fmt.Fprint(&b, d)
			}
		}
	}
	return b.String()
}

// transcript replays trace on a fresh hierarchy for p through do and writes
// one line per access: the issuing thread and operation, the latency, the
// Stats fields it moved and the listener events it fired, in delivery
// order. The address is left out, as the trace regenerates it. Every 1000
// accesses, and at the end, it writes the access count, the replacement
// tick and the full running Stats and verifies the directory invariants.
func transcript(w io.Writer, p Params, trace []access, do func(h *Hierarchy, a access) uint64) error {
	rec := &recorder{}
	h := New(p, rec)
	fmt.Fprintf(w, "# cores %d threads-per-core %d accesses %d\n", p.Cores, p.SMTWidth(), len(trace))
	var prev Stats
	for i, a := range trace {
		rec.events = rec.events[:0]
		lat := do(h, a)
		op := "R"
		if a.write {
			op = "W"
		}
		cur := h.Stats()
		fmt.Fprintf(w, "%d %s %d%s", a.tid, op, lat, statDeltas(prev, cur))
		prev = cur
		if len(rec.events) > 0 {
			fmt.Fprint(w, " |")
			for _, ev := range rec.events {
				fmt.Fprintf(w, " %d:%x", ev.core, ev.line)
			}
		}
		fmt.Fprintln(w)
		if (i+1)%1000 == 0 || i+1 == len(trace) {
			fmt.Fprintf(w, "= %d tick %d %+v\n", i+1, h.tick, cur)
			if err := h.CheckInvariants(); err != nil {
				return fmt.Errorf("after access %d: %w", i, err)
			}
		}
	}
	return nil
}

// transcriptConfigs are the two machines the golden covers: four cores
// without SMT, and four hardware threads as two 2-way SMT cores, where a
// write also notifies the writer's sibling.
func transcriptConfigs() []Params {
	solo := DefaultParams(4)
	smt := DefaultParams(4)
	smt.ThreadsPerCore = 2
	return []Params{solo, smt}
}

// renderTranscript renders the whole golden through do.
func renderTranscript(do func(h *Hierarchy, a access) uint64) ([]byte, error) {
	var b bytes.Buffer
	for _, p := range transcriptConfigs() {
		if err := transcript(&b, p, transcriptTrace(p, 20000, 17), do); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

func viaHierarchy(h *Hierarchy, a access) uint64 {
	if a.write {
		return h.Write(a.tid, a.addr)
	}
	return h.Read(a.tid, a.addr)
}

// viaPorts drives each access the way the simulator does: the thread's
// port tries its inline hit path and falls back to the slow path.
func viaPorts(h *Hierarchy, a access) uint64 {
	p := h.Port(a.tid)
	if a.write {
		if lat, ok := p.WriteHit(a.addr); ok {
			return lat
		}
		return p.WriteSlow(a.addr)
	}
	if lat, ok := p.ReadHit(a.addr); ok {
		return lat
	}
	return p.ReadMiss(a.addr)
}

// TestTranscriptGolden pins the hierarchy's bookkeeping access by access:
// latencies, the replacement order the LRU stamps produce, every Stats
// counter and every listener event, SMT sibling notifications included. It
// sits below the trial goldens, so a drift shows as the first access whose
// line differs rather than as a changed trial checksum. The golden was
// recorded through Hierarchy.Read/Write before ports existed; both entry
// points must reproduce it.
func TestTranscriptGolden(t *testing.T) {
	got, err := renderTranscript(viaHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	if *updateTranscript {
		var z bytes.Buffer
		zw, err := gzip.NewWriterLevel(&z, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptFile, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareTranscript(t, got)
	viaPort, err := renderTranscript(viaPorts)
	if err != nil {
		t.Fatal(err)
	}
	compareTranscript(t, viaPort)
}

// TestRefusedHitChangesNothing: a refused hit attempt leaves the hierarchy
// exactly as it was, so the slow path that follows performs the whole
// access. Misses, Shared lines offered to WriteHit, and Modified lines in
// an L1 shared by SMT siblings are all refused.
func TestRefusedHitChangesNothing(t *testing.T) {
	for _, p := range transcriptConfigs() {
		h := New(p, &recorder{})
		siblingRefusals := 0
		for _, a := range transcriptTrace(p, 3000, 5) {
			port := h.Port(a.tid)
			tick, stats := h.tick, h.Stats()
			lru := append([]uint64(nil), port.l1.lru...)
			var ok bool
			if a.write {
				_, ok = port.WriteHit(a.addr)
			} else {
				_, ok = port.ReadHit(a.addr)
			}
			if ok {
				continue
			}
			if h.tick != tick || h.Stats() != stats || !slices.Equal(port.l1.lru, lru) {
				t.Fatalf("%d-way SMT: refused %+v changed the hierarchy", p.SMTWidth(), a)
			}
			if a.write && h.HasLine(a.tid, a.addr) == Modified {
				siblingRefusals++
			}
			viaHierarchy(h, a)
		}
		// A Modified write hit is refused only for the sibling
		// notification, and only where the L1 is shared.
		if smt := p.SMTWidth() > 1; smt != (siblingRefusals > 0) {
			t.Fatalf("%d-way SMT: %d Modified write hits refused", p.SMTWidth(), siblingRefusals)
		}
	}
}

// compareTranscript fails at the first line of got that differs from the
// golden.
func compareTranscript(t *testing.T, got []byte) {
	t.Helper()
	f, err := os.Open(transcriptFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	ws := bufio.NewScanner(bytes.NewReader(want))
	gs := bufio.NewScanner(bytes.NewReader(got))
	for n := 1; ; n++ {
		wok, gok := ws.Scan(), gs.Scan()
		if !wok && !gok {
			return
		}
		if wok != gok || ws.Text() != gs.Text() {
			t.Fatalf("transcript line %d:\n got  %q\n want %q", n, gs.Text(), ws.Text())
		}
	}
}
