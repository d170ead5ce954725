package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condaccess/internal/bench"
	"condaccess/internal/obs"
)

// Store is an on-disk, content-addressed trial store. Every entry is keyed
// by key = SHA-256(engine tag, kind, canonical spec): the name is the
// content address of the spec, so integrity is checkable offline and two
// stores can be diffed by coordinates without sharing any state.
//
// Entries live in append-only segment files under segments/ holding
// length-prefixed, checksummed records, plus an in-memory index loaded once
// per Open from a sidecar (segment.go). A warm lookup is a map probe and
// one ReadAt; puts buffer per stripe and flush in batches with one fsync
// per flush. A leftover file-per-entry tree from a pre-pack binary is
// ignored: its entries were written under an older engine tag, so none of
// them could be served, and it may be deleted by hand.
type Store struct {
	dir string
	tag string

	mu      sync.RWMutex
	index   map[string]recLoc // content key -> flushed packed record
	pending map[string][]byte // content key -> buffered envelope payload, not yet flushed
	readers map[int]*os.File  // open segment read handles
	covered map[int]int64     // indexed clean-prefix length per segment
	writers []*segmentWriter
	nextSeg int
	dirty   bool // in-memory index has entries the sidecar lacks

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	opens  atomic.Uint64 // file opens; warm packed sweeps keep this O(segments)

	// Write-back durability counters (segment.go): batched flushes, bytes
	// made durable by segment flushes, and the time
	// spent inside flushes (fsync included) and loading the index at Open.
	flushes        atomic.Uint64
	bytesWritten   atomic.Uint64
	flushNanos     atomic.Int64
	fsyncNanos     atomic.Int64
	indexLoadNanos atomic.Int64

	// OnFlush, when non-nil, is called after each durable segment flush
	// with the number of records published and bytes written. It is
	// observational (obs event stream); set it before the store sees
	// traffic and never from a callback. Called with no store locks held
	// beyond the flushing stripe's.
	OnFlush func(records, bytes int)
}

// Store implements the harness's read-through/write-through contract.
var _ bench.TrialStore = (*Store)(nil)

// writeStripes is the number of append buffers puts are striped across:
// enough that pool workers rarely contend on one buffer's lock, few enough
// that a cold run leaves a handful of segments, not one per trial.
const writeStripes = 4

// Open opens (creating if necessary) the store rooted at dir. Entries are
// keyed under the current bench.EngineTag(); entries written by other engine
// versions remain on disk — invisible to lookups — until GC. The packed
// index is loaded here, once: the sidecar if it is current, plus a scan of
// whatever segment bytes it does not cover.
func Open(dir string) (*Store, error) {
	return openTagged(dir, bench.EngineTag())
}

func openTagged(dir, tag string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		return nil, fmt.Errorf("lab: opening store: %w", err)
	}
	s := &Store{
		dir: dir, tag: tag,
		index:   map[string]recLoc{},
		pending: map[string][]byte{},
		readers: map[int]*os.File{},
		covered: map[int]int64{},
	}
	for i := 0; i < writeStripes; i++ {
		s.writers = append(s.writers, &segmentWriter{st: s})
	}
	t0 := time.Now()
	s.loadSidecar()
	if err := s.refresh(); err != nil {
		return nil, err
	}
	s.indexLoadNanos.Add(int64(time.Since(t0)))
	return s, nil
}

// OpenExisting opens a store that must already exist. Read-only consumers
// (calab) use this so a mistyped path fails loudly instead of silently
// materializing an empty store and reporting zero entries.
func OpenExisting(dir string) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "segments")); err != nil {
		return nil, fmt.Errorf("lab: %s is not a result store (no segments/ directory): %w", dir, err)
	}
	return Open(dir)
}

// OpenForRun opens the store at dir for one command's run and returns it
// with the finish function the caller defers: finish(&err) closes the
// store, records its traffic on rec, and prints the stats line to stderr
// only when the run succeeded, so a failure stays one stderr line. Close
// always runs — a failed run must not lose the batched segment writes of
// the trials that did complete — and the run's own error wins over a close
// error. With dir empty there is no store: the TrialStore is a nil
// interface and finish does nothing.
func OpenForRun(dir string, rec *obs.Rec, stderr io.Writer) (bench.TrialStore, func(*error), error) {
	if dir == "" {
		return nil, func(*error) {}, nil
	}
	st, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	st.OnFlush = rec.StoreFlushed
	return st, func(err *error) {
		if cerr := st.Close(); *err == nil {
			*err = cerr
		}
		rec.SetStore(st.Stats().Rollup())
		if *err == nil {
			fmt.Fprintln(stderr, st.Stats())
		}
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Tag returns the engine tag lookups are scoped to.
func (s *Store) Tag() string { return s.tag }

// StoreStats counts this handle's store traffic. After a fully warm sweep,
// Misses, Puts, Flushes, and BytesWritten are zero: every trial came from
// the store and none was simulated or written back. Opens counts file opens
// — a warm sweep holds it at O(segments) however many trials it
// serves. The nanosecond fields time the durability work itself: flushes
// (FsyncNanos is the fsync share of FlushNanos) and the one-time index load
// at Open.
type StoreStats struct {
	Hits   uint64
	Misses uint64
	Puts   uint64
	Opens  uint64

	Flushes      uint64 // durable write-back batches (one fsync each)
	BytesWritten uint64 // bytes made durable by segment flushes

	FlushNanos     int64
	FsyncNanos     int64
	IndexLoadNanos int64
}

// Stats returns the traffic counters accumulated on this handle.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(), Opens: s.opens.Load(),
		Flushes: s.flushes.Load(), BytesWritten: s.bytesWritten.Load(),
		FlushNanos: s.flushNanos.Load(), FsyncNanos: s.fsyncNanos.Load(),
		IndexLoadNanos: s.indexLoadNanos.Load(),
	}
}

// Rollup converts the counters to the manifest's store section.
func (s StoreStats) Rollup() obs.StoreRollup {
	return obs.StoreRollup{
		Hits: s.Hits, Misses: s.Misses, Puts: s.Puts, Opens: s.Opens,
		Flushes: s.Flushes, BytesWritten: s.BytesWritten,
		FlushNanos: s.FlushNanos, FsyncNanos: s.FsyncNanos,
		IndexLoadNanos: s.IndexLoadNanos,
	}
}

// String renders the traffic line every -store command reports on stderr;
// "(100% warm)" is the re-run-executed-zero-trials signal CI greps for. A
// handle that served no lookups at all says so explicitly — "0% warm"
// would read as a fully cold run to the same greps. When the handle wrote
// anything back durably, the line gains the flush traffic; a fully warm run
// writes nothing and keeps the historical line byte for byte.
func (s StoreStats) String() string {
	total := s.Hits + s.Misses
	if total == 0 {
		return "store: no traffic"
	}
	pct := 100 * float64(s.Hits) / float64(total)
	line := fmt.Sprintf("store: %d hits, %d misses (%.0f%% warm)", s.Hits, s.Misses, pct)
	if s.Flushes > 0 || s.BytesWritten > 0 {
		line += fmt.Sprintf(", %d flushes (%s written)", s.Flushes, formatBytes(s.BytesWritten))
	}
	return line
}

// formatBytes renders a byte count with a binary unit, one decimal place
// past KiB.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// envelope is the entry payload format: a segment record's payload is one
// envelope's JSON. Spec and Result are the canonical serialized forms
// verbatim; Sum fingerprints Result so Verify, GC, the entry readers and
// Merge can detect payload corruption.
type envelope struct {
	Tag    string          `json:"tag"`
	Kind   string          `json:"kind"`
	Spec   json.RawMessage `json:"spec"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// hitEnvelope is the lookup side of envelope: Result holds the caller's
// out, so the result decodes straight into it, and the fields a hit does
// not read are checked for syntax and skipped without a copy.
type hitEnvelope struct {
	Tag    string  `json:"tag"`
	Kind   string  `json:"kind"`
	Spec   skipped `json:"spec"`
	Sum    skipped `json:"sum"`
	Result any     `json:"result"`
}

// skipped is a JSON value a hit does not read.
type skipped struct{}

func (*skipped) UnmarshalJSON([]byte) error { return nil }

// key derives the content address of a spec under tag.
func key(tag, kind string, spec []byte) string {
	h := sha256.New()
	io.WriteString(h, tag)
	h.Write([]byte{'\n'})
	io.WriteString(h, kind)
	h.Write([]byte{'\n'})
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil))
}

// payloadSum fingerprints a serialized result.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// loadKey fetches the envelope payload for key from the in-process overlay
// of unflushed puts, else from the index (one ReadAt). It returns nil when
// the key is absent or its record is bad (bitrot, a stale sidecar pointing
// at another key's record); the lookup then misses, and the write-through
// heals by appending a fresh record.
func (s *Store) loadKey(key string) []byte {
	s.mu.RLock()
	data, buffered := s.pending[key]
	loc, indexed := s.index[key]
	s.mu.RUnlock()
	if buffered {
		return data
	}
	if !indexed {
		return nil
	}
	payload, err := s.readRecord(key, loc)
	if err != nil {
		return nil
	}
	return payload
}

// lookupKey reads the entry at key into out (a pointer to a result) with
// one JSON decode. The frame's CRC32-C over key and payload and the
// frame-key match (readRecord) vouch for the bytes, and the decode is
// strict: an unknown field of the envelope or of any struct in the result,
// trailing bytes, another engine tag or kind, or a null result is a miss.
// The result's SHA-256 fingerprint is not recomputed per hit; Verify, GC,
// the entry readers and Merge check it. After a miss out is unspecified:
// the caller re-simulates and the write-through overwrites the bad entry.
func (s *Store) lookupKey(kind, key string, out any) bool {
	data := s.loadKey(key)
	if data == nil || !s.decodeHit(data, kind, out) {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// decodeHit decodes one envelope payload into out and reports whether it is
// a sound entry of kind under this store's tag.
func (s *Store) decodeHit(data []byte, kind string, out any) bool {
	env := hitEnvelope{Result: out}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if dec.Decode(&env) != nil || env.Tag != s.tag || env.Kind != kind || env.Result != out {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// putKey writes the entry for (kind, spec) under its precomputed key as a
// buffered segment append.
func (s *Store) putKey(kind string, spec []byte, key string, res any) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("lab: encoding result: %w", err)
	}
	data, err := json.Marshal(envelope{
		Tag: s.tag, Kind: kind, Spec: spec,
		Sum: payloadSum(payload), Result: payload,
	})
	if err != nil {
		return fmt.Errorf("lab: encoding entry: %w", err)
	}
	return s.putPayload(key, data)
}

// specKeyOf resolves a prepared spec's memoized content key, deriving and
// caching it on first use so the write-through after a miss never re-hashes.
func (s *Store) specKeyOf(kind string, ps *bench.PreparedSpec) string {
	if ps.Key == "" {
		ps.Key = key(s.tag, kind, ps.Spec)
	}
	return ps.Key
}

// Lookup implements bench.TrialStore: it decodes the entry for (kind,
// ps.Spec) into out, memoizing the derived key on ps for the put.
func (s *Store) Lookup(kind string, ps *bench.PreparedSpec, out any) bool {
	return s.lookupKey(kind, s.specKeyOf(kind, ps), out)
}

// Put implements bench.TrialStore.
func (s *Store) Put(kind string, ps *bench.PreparedSpec, res any) error {
	return s.putKey(kind, ps.Spec, s.specKeyOf(kind, ps), res)
}

// Entry is one fully decoded store entry. Exactly one of the (Workload,
// Result) and (Scenario, ScenarioResult) pairs is set, per Kind.
type Entry struct {
	Key  string
	Tag  string
	Kind string

	Workload *bench.Workload
	Result   *bench.Result

	Scenario       *bench.ScenarioSpec
	ScenarioResult *bench.ScenarioResult
}

// SpecEntry is one store entry with its spec decoded and its result left as
// raw bytes. Cell grouping and diffing need every entry's coordinates and
// seed (the spec) but only one number from the result, so they read entries
// spec-first and decode the payload lazily instead of materializing every
// trial's full Result — tail histograms, phase segments and all.
type SpecEntry struct {
	Key  string
	Tag  string
	Kind string

	Workload *bench.Workload     // bench.KindTrial
	Scenario *bench.ScenarioSpec // bench.KindScenario

	rawResult json.RawMessage
}

// Seed returns the entry's spec seed.
func (e *SpecEntry) Seed() uint64 {
	if e.Kind == bench.KindScenario {
		return e.Scenario.Seed
	}
	return e.Workload.Seed
}

// Throughput partially decodes just the throughput from the raw result.
func (e *SpecEntry) Throughput() float64 {
	var t struct{ Throughput float64 }
	if json.Unmarshal(e.rawResult, &t) != nil {
		return 0
	}
	return t.Throughput
}

// Decode materializes the full entry, result payload included.
func (e *SpecEntry) Decode() (Entry, error) {
	full := Entry{Key: e.Key, Tag: e.Tag, Kind: e.Kind, Workload: e.Workload, Scenario: e.Scenario}
	if e.Kind == bench.KindScenario {
		full.ScenarioResult = new(bench.ScenarioResult)
		if err := json.Unmarshal(e.rawResult, full.ScenarioResult); err != nil {
			return Entry{}, fmt.Errorf("decoding scenario result: %w", err)
		}
		return full, nil
	}
	full.Result = new(bench.Result)
	if err := json.Unmarshal(e.rawResult, full.Result); err != nil {
		return Entry{}, fmt.Errorf("decoding trial result: %w", err)
	}
	return full, nil
}

// specEntryOf validates an envelope against its claimed content address and
// decodes its spec, leaving the result raw.
func specEntryOf(name string, env envelope) (SpecEntry, error) {
	if got := key(env.Tag, env.Kind, env.Spec); got != name {
		return SpecEntry{}, fmt.Errorf("content address mismatch: entry %s, spec hashes to %s", name, got)
	}
	if payloadSum(env.Result) != env.Sum {
		return SpecEntry{}, errors.New("result payload does not match its fingerprint")
	}
	e := SpecEntry{Key: name, Tag: env.Tag, Kind: env.Kind, rawResult: env.Result}
	switch env.Kind {
	case bench.KindTrial:
		e.Workload = new(bench.Workload)
		if err := json.Unmarshal(env.Spec, e.Workload); err != nil {
			return SpecEntry{}, fmt.Errorf("decoding trial spec: %w", err)
		}
	case bench.KindScenario:
		e.Scenario = new(bench.ScenarioSpec)
		if err := json.Unmarshal(env.Spec, e.Scenario); err != nil {
			return SpecEntry{}, fmt.Errorf("decoding scenario spec: %w", err)
		}
	default:
		return SpecEntry{}, fmt.Errorf("unknown entry kind %q", env.Kind)
	}
	return e, nil
}

// verifyPayload checks one entry payload end to end: the envelope parses,
// the claimed key matches the content address of (tag, kind, spec), the
// result payload matches its fingerprint, and the spec decodes under its
// kind.
func verifyPayload(name string, payload []byte) (SpecEntry, error) {
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return SpecEntry{}, err
	}
	return specEntryOf(name, env)
}

// forEachEntry visits every sound entry in sorted key order, with its raw
// envelope payload and its spec decoded. It flushes and refreshes first, so
// whole-store reads see every durable record, this handle's and others'.
// Corrupt entries are skipped — Verify reports them.
func (s *Store) forEachEntry(fn func(payload []byte, e SpecEntry) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.refresh(); err != nil {
		return err
	}
	for _, r := range s.indexed() {
		payload, err := s.readRecord(r.key, r.loc)
		if err != nil {
			continue
		}
		e, err := verifyPayload(r.key, payload)
		if err != nil {
			continue
		}
		if err := fn(payload, e); err != nil {
			return err
		}
	}
	return nil
}

// SpecEntries reads every valid entry (all engine tags) with specs decoded
// and results raw, in deterministic (sorted key) order.
func (s *Store) SpecEntries() ([]SpecEntry, error) {
	var entries []SpecEntry
	err := s.forEachEntry(func(_ []byte, e SpecEntry) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Entries fully decodes every valid entry in the store (all engine tags),
// in deterministic order. Corrupt entries are skipped — Verify reports them.
func (s *Store) Entries() ([]Entry, error) {
	specs, err := s.SpecEntries()
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for i := range specs {
		e, err := specs[i].Decode()
		if err != nil {
			continue
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Problem is one integrity defect found by Verify.
type Problem struct {
	Path   string
	Reason string
}

// Verify checks the integrity of every entry: every segment record is
// re-framed, re-checksummed, and its envelope verified (content address,
// payload fingerprint, spec decoding). A truncated or corrupt tail (the
// residue of a crashed flush) is reported once per segment — lookups
// already ignore it, and GC drops it. It returns the number of sound
// records alongside the defects.
func (s *Store) Verify() (sound int, problems []Problem, err error) {
	if err := s.Flush(); err != nil {
		return 0, nil, err
	}
	if err := s.refresh(); err != nil {
		return 0, nil, err
	}
	segs, err := s.listSegments()
	if err != nil {
		return 0, nil, err
	}
	for _, seg := range segs {
		path := s.segmentPath(seg)
		f, ferr := os.Open(path)
		if ferr != nil {
			return 0, nil, fmt.Errorf("lab: %w", ferr)
		}
		s.opens.Add(1)
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return 0, nil, fmt.Errorf("lab: %w", serr)
		}
		end, serr := scanSegment(f, 0, func(key string, loc recLoc, payload []byte) error {
			if _, verr := verifyPayload(key, payload); verr != nil {
				problems = append(problems, Problem{
					Path:   fmt.Sprintf("%s@%d", path, loc.off),
					Reason: verr.Error(),
				})
				return nil
			}
			sound++
			return nil
		}, seg)
		f.Close()
		if serr != nil {
			return 0, nil, serr
		}
		if end < st.Size() {
			problems = append(problems, Problem{
				Path:   fmt.Sprintf("%s@%d", path, end),
				Reason: fmt.Sprintf("truncated or checksum-corrupt tail record (%d trailing bytes ignored; calab gc drops them)", st.Size()-end),
			})
		}
	}
	return sound, problems, nil
}

// GC removes store entries that can no longer serve lookups: entries
// written under a different engine tag than the current one, and corrupt
// entries. With all set, every entry goes. The survivors are compacted into
// a fresh segment, which also drops superseded records and crash residue.
// It returns the number of entries removed and kept.
func (s *Store) GC(all bool) (removed, kept int, err error) {
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.refresh(); err != nil {
		return 0, 0, err
	}
	for _, r := range s.indexed() {
		keep := false
		if !all {
			if payload, rerr := s.readRecord(r.key, r.loc); rerr == nil {
				e, verr := verifyPayload(r.key, payload)
				keep = verr == nil && e.Tag == s.tag
			}
		}
		if keep {
			kept++
			continue
		}
		s.mu.Lock()
		delete(s.index, r.key)
		s.dirty = true
		s.mu.Unlock()
		removed++
	}
	if err := s.compactSegments(); err != nil {
		return removed, kept, err
	}
	return removed, kept, nil
}

// indexedRec is one index entry: a content key and its record's location.
type indexedRec struct {
	key string
	loc recLoc
}

// indexed snapshots the index in sorted key order.
func (s *Store) indexed() []indexedRec {
	s.mu.RLock()
	recs := make([]indexedRec, 0, len(s.index))
	for k, loc := range s.index {
		recs = append(recs, indexedRec{k, loc})
	}
	s.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	return recs
}
