// Package resume implements crash-safe checkpoint/resume for all-sites
// P_sensitized sweeps: a sweep periodically serializes its completed work to
// a file, and a later run against the same request skips that work and folds
// the saved results back in, producing output bit-identical to an
// uninterrupted run.
//
// What makes this cheap here is a property the engines already guarantee:
// every sweep's results are worker-count-invariant because the merged state
// is either per-unit floating-point values written exactly once (site-major
// engines) or integer counters whose sum has no merge-order hazard
// (word-major Monte Carlo). A checkpoint is therefore just the set of
// completed units plus their values/counters — no scheduler state, no
// in-flight partial sums.
//
// # File format
//
// A checkpoint is a single JSON object written atomically (temp file +
// rename in the same directory), so a crash mid-write never corrupts an
// existing checkpoint. Fields:
//
//	{
//	  "version":     2,            // format version; see Version
//	  "engine":      "epp-batch",  // registry name of the engine that wrote it
//	  "fingerprint": "ab12…",      // request fingerprint (hex SHA-256)
//	  "kind":        "sites",      // unit semantics: "sites" or "words"
//	  "units":       1669,         // total units in the full sweep
//	  "done":        [{"lo":0,"hi":128}, …],  // completed unit ranges, sorted, disjoint
//	  "values":      [4602891378046628709, …],// kind "sites": one IEEE-754 bit
//	                                          // pattern (math.Float64bits) per
//	                                          // done unit, in done-range order
//	  "counters":    {…},                     // kind "words": integer Counters
//	  "checksum":    "9f3c…"                  // hex SHA-256 over the document
//	                                          // with this field empty (v2+)
//	}
//
// Version is bumped on any incompatible change to this layout; a loader
// finding an unknown version rejects the file rather than guessing. Version
// 1 files (written before the checksum existed) still load — they simply
// carry no integrity check. Version 2 files must carry a checksum that
// verifies: the writer serializes the document with an empty checksum
// field, hashes those bytes with SHA-256, and stores the hex digest; the
// reader re-serializes the parsed document the same way and compares. A
// torn write, bit rot, or hand-editing therefore surfaces as a structured
// *CorruptError instead of silently folding garbage values into a resumed
// sweep. Arm quarantines a corrupt file by renaming it to <path>.corrupt
// (preserving the evidence) so an immediate re-Arm starts the sweep fresh.
// Site values are stored as uint64 IEEE-754 bit patterns, not JSON numbers,
// because resumed output must be bit-identical to an uninterrupted run and
// JSON float round-tripping (or a NaN) must not be able to break that.
//
// The fingerprint hashes everything that determines the sweep's results —
// circuit content, engine name, frames, vectors, seed, rules, bias, signal
// probabilities, latch parameters — and deliberately excludes pure
// scheduling knobs (worker count, batch width, sweep order), which the
// engines guarantee cannot change results. A checkpoint written on a
// 64-core machine therefore resumes correctly on a laptop. Arming against a
// file whose fingerprint does not match the request is an error, never a
// silent restart.
//
// # Consistency
//
// Writers commit completed units under the sweep's merge mutex, so every
// write captures a consistent pair (done set, values/counters): exactly the
// units in done are reflected in the counters. Interval-based cadence only
// delays writes — the file on disk is always some consistent prefix of the
// sweep, which is precisely what resuming needs after a kill at an
// arbitrary point.
package resume

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Version is the checkpoint file format version this package writes.
// Readers accept Version and the checksum-less legacy version 1, and
// reject anything else.
const Version = 2

// legacyVersion is the last format without a content checksum; files at
// this version still load (no integrity check is possible for them).
const legacyVersion = 1

// Unit semantics of a checkpoint: completed site-ID ranges (site-major
// engines) or completed 64-vector word indices (the word-major monte-carlo
// engine).
const (
	KindSites = "sites"
	KindWords = "words"
)

// Range is a half-open completed-unit range [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Counters is the integer counter snapshot of a word-major sweep — the
// per-site (and per-frame) detection tallies plus the work counters, all of
// which are plain sums over completed words and therefore resume by
// addition.
type Counters struct {
	Detected []int64 `json:"detected"`         // per site: trials detected in any frame
	Later    []int64 `json:"later,omitempty"`  // per site: trials detected in frame >= 1 (multi-cycle)
	Frames   []int64 `json:"frames,omitempty"` // frame-major frames×n per-frame detections (multi-cycle)

	Words        int64 `json:"words"`
	GoodSims     int64 `json:"good_sims"`
	LaneSims     int64 `json:"lane_sims"`
	SweptMembers int64 `json:"swept_members"`
}

// clone deep-copies the snapshot so the caller may keep mutating its own.
func (c *Counters) clone() *Counters {
	if c == nil {
		return nil
	}
	cp := *c
	cp.Detected = append([]int64(nil), c.Detected...)
	cp.Later = append([]int64(nil), c.Later...)
	cp.Frames = append([]int64(nil), c.Frames...)
	return &cp
}

// File is the on-disk checkpoint layout; see the package documentation for
// field semantics.
type File struct {
	Version     int       `json:"version"`
	Engine      string    `json:"engine"`
	Fingerprint string    `json:"fingerprint"`
	Kind        string    `json:"kind"`
	Units       int       `json:"units"`
	Done        []Range   `json:"done"`
	Values      []uint64  `json:"values,omitempty"`
	Counters    *Counters `json:"counters,omitempty"`
	Checksum    string    `json:"checksum,omitempty"`
}

// checksum computes the hex SHA-256 digest of the file serialized with an
// empty Checksum field — the value a version >= 2 writer stores and a
// reader verifies. Serialization is deterministic (fixed field order,
// compact encoding, integer bit patterns), so writer and reader agree
// byte-for-byte.
func (f *File) checksum() string {
	cp := *f
	cp.Checksum = ""
	data, err := json.Marshal(&cp)
	if err != nil {
		// The struct contains only marshalable fields; this cannot happen.
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CorruptError reports a checkpoint file whose bytes cannot be trusted:
// unparseable JSON or a failed content checksum. Quarantined is the path
// the file was moved to when Arm set it aside ("" when only Load ran, or
// when the rename itself failed — Reason then includes why).
type CorruptError struct {
	Path        string // the checkpoint file that failed validation
	Quarantined string // where Arm moved it, "" if not (yet) quarantined
	Reason      string // what failed: parse error or checksum mismatch
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("resume: checkpoint %s is corrupt: %s", e.Path, e.Reason)
	if e.Quarantined != "" {
		msg += fmt.Sprintf(" (quarantined to %s)", e.Quarantined)
	}
	return msg
}

// Load reads and validates a checkpoint file. A missing file is not an
// error: it returns (nil, nil), the fresh-start case. Unparseable bytes or
// a failed content checksum return a *CorruptError; identity and layout
// problems in an intact document return plain errors.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("not valid JSON: %v", err)}
	}
	if f.Version != Version && f.Version != legacyVersion {
		return nil, fmt.Errorf("resume: checkpoint %s has format version %d; this build reads versions %d and %d", path, f.Version, legacyVersion, Version)
	}
	if f.Version >= 2 {
		if f.Checksum == "" {
			return nil, &CorruptError{Path: path, Reason: "version 2 file has no checksum"}
		}
		if want := f.checksum(); f.Checksum != want {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum mismatch: file says %.12s…, content hashes to %.12s…", f.Checksum, want)}
		}
	}
	if f.Kind != KindSites && f.Kind != KindWords {
		return nil, fmt.Errorf("resume: checkpoint %s has unknown kind %q", path, f.Kind)
	}
	prev := 0
	total := 0
	for _, r := range f.Done {
		if r.Lo < prev || r.Hi <= r.Lo || r.Hi > f.Units {
			return nil, fmt.Errorf("resume: checkpoint %s has malformed done range [%d,%d) (units %d)", path, r.Lo, r.Hi, f.Units)
		}
		prev = r.Hi
		total += r.Hi - r.Lo
	}
	if f.Kind == KindSites && len(f.Values) != total {
		return nil, fmt.Errorf("resume: checkpoint %s has %d values for %d done units", path, len(f.Values), total)
	}
	return &f, nil
}

// Checkpoint names a checkpoint file and its write cadence. It is the value
// carried by engine requests; Arm binds it to one concrete sweep.
type Checkpoint struct {
	path     string
	interval time.Duration
}

// New returns a checkpoint handle for path. interval is the minimum time
// between checkpoint writes; an interval <= 0 writes after every committed
// batch or word (maximally durable, and deterministic for tests). The final
// Flush always writes regardless of cadence.
func New(path string, interval time.Duration) *Checkpoint {
	return &Checkpoint{path: path, interval: interval}
}

// Path returns the checkpoint file path ("" for an in-memory checkpoint).
func (cp *Checkpoint) Path() string { return cp.path }

// InMemory returns a checkpoint with no backing file: commits and flushes
// update the State's done set and values but never touch disk. It gives a
// caller the package's progress bookkeeping — done ranges, pending
// complement, value restoration, fingerprint binding — without durability:
// the distributed coordinator uses it to track which shard ranges have been
// committed (and re-dispatch the complement after a worker failure) when no
// checkpoint directory is configured.
func InMemory() *Checkpoint { return &Checkpoint{} }

// Arm binds the checkpoint to one concrete sweep: engine name, request
// fingerprint, unit kind and total unit count. If the file exists, its
// identity must match exactly — a mismatch (different circuit, options,
// engine or unit count) is an error, never a silent restart; delete the
// file to start fresh. A corrupt file (torn bytes, failed checksum) is
// quarantined to <path>.corrupt and reported as a *CorruptError — a
// subsequent Arm then starts fresh; ArmRecovering does both steps in one
// call. The returned State carries any restored progress and accepts
// commits.
func (cp *Checkpoint) Arm(engineName, fingerprint, kind string, units int) (*State, error) {
	f, err := Load(cp.path)
	var ce *CorruptError
	if errors.As(err, &ce) {
		q := cp.path + ".corrupt"
		if rerr := os.Rename(cp.path, q); rerr != nil {
			ce.Reason += fmt.Sprintf("; quarantine rename failed: %v", rerr)
		} else {
			ce.Quarantined = q
		}
		return nil, ce
	}
	if err != nil {
		return nil, err
	}
	s := &State{
		cp:       cp,
		engine:   engineName,
		fp:       fingerprint,
		kind:     kind,
		units:    units,
		doneBits: make([]uint64, (units+63)/64),
		//serlint:allow detsource checkpoint write cadence is scheduling only; the wall clock is never serialized into the checkpoint or any result
		last: time.Now(),
	}
	if kind == KindSites {
		s.values = make([]uint64, units)
	}
	if f == nil {
		return s, nil
	}
	switch {
	case f.Engine != engineName:
		err = fmt.Errorf("engine %q (request wants %q)", f.Engine, engineName)
	case f.Kind != kind:
		err = fmt.Errorf("kind %q (request wants %q)", f.Kind, kind)
	case f.Units != units:
		err = fmt.Errorf("%d units (request wants %d)", f.Units, units)
	case f.Fingerprint != fingerprint:
		err = fmt.Errorf("a different request fingerprint")
	}
	if err != nil {
		return nil, fmt.Errorf("resume: checkpoint %s was written by %v; delete the file to start fresh", cp.path, err)
	}
	vi := 0
	for _, r := range f.Done {
		for u := r.Lo; u < r.Hi; u++ {
			s.doneBits[u/64] |= 1 << uint(u%64)
			if kind == KindSites {
				s.values[u] = f.Values[vi]
				vi++
			}
		}
		s.doneCount += r.Hi - r.Lo
	}
	s.counters = f.Counters.clone()
	return s, nil
}

// ArmRecovering arms like Arm, but when the existing file is corrupt
// (Arm has already quarantined it) it restarts the sweep with a fresh
// State instead of failing. The returned *CorruptError, when non-nil,
// describes the quarantined file so the caller can log or surface the
// event; identity mismatches and I/O errors still fail hard.
func (cp *Checkpoint) ArmRecovering(engineName, fingerprint, kind string, units int) (*State, *CorruptError, error) {
	st, err := cp.Arm(engineName, fingerprint, kind, units)
	var ce *CorruptError
	if errors.As(err, &ce) {
		st, err = cp.Arm(engineName, fingerprint, kind, units)
		return st, ce, err
	}
	return st, nil, err
}

// State is one armed sweep's checkpoint state: the done-unit set plus the
// restored and subsequently committed values/counters. Commit methods are
// safe for concurrent use (the shared sweep driver calls them under its
// mutex anyway); Flush is called once after the sweep stops.
type State struct {
	mu        sync.Mutex
	cp        *Checkpoint
	engine    string
	fp        string
	kind      string
	units     int
	doneBits  []uint64
	doneCount int
	values    []uint64  // sites: per-unit IEEE-754 bits, valid where done
	counters  *Counters // words: snapshot consistent with doneBits at last commit
	last      time.Time
	dirty     bool
}

// DoneUnits returns the number of completed units (restored plus committed).
func (s *State) DoneUnits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneCount
}

// DoneRanges returns the completed units as sorted disjoint ranges.
func (s *State) DoneRanges() []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rangesLocked()
}

// DoneMask returns the completed units as a dense boolean mask.
func (s *State) DoneMask() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	mask := make([]bool, s.units)
	for u := 0; u < s.units; u++ {
		if s.doneBits[u/64]>>uint(u%64)&1 == 1 {
			mask[u] = true
		}
	}
	return mask
}

// RestoreSites writes the restored per-site values into out (indexed by
// unit) and returns the restored ranges. Only meaningful for KindSites.
func (s *State) RestoreSites(out []float64) []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	ranges := s.rangesLocked()
	for _, r := range ranges {
		for u := r.Lo; u < r.Hi; u++ {
			out[u] = math.Float64frombits(s.values[u])
		}
	}
	return ranges
}

// Counters returns the restored counter snapshot, or nil for a fresh start.
// Only meaningful for KindWords.
func (s *State) Counters() *Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters.clone()
}

// CommitSites records units [lo, hi) as completed with the given values and
// writes the file if the cadence is due.
func (s *State) CommitSites(lo, hi int, vals []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for u := lo; u < hi; u++ {
		if s.doneBits[u/64]>>uint(u%64)&1 == 0 {
			s.doneBits[u/64] |= 1 << uint(u%64)
			s.doneCount++
		}
		s.values[u] = math.Float64bits(vals[u-lo])
	}
	s.dirty = true
	if s.dueLocked() {
		return s.writeLocked()
	}
	return nil
}

// CommitWord records word w as completed. snap must return a counter
// snapshot consistent with every committed word including w; it is invoked
// only when the cadence makes this commit write the file, so the caller can
// afford a full copy per write rather than per word.
func (s *State) CommitWord(w int, snap func() Counters) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doneBits[w/64]>>uint(w%64)&1 == 0 {
		s.doneBits[w/64] |= 1 << uint(w%64)
		s.doneCount++
	}
	s.dirty = true
	if s.dueLocked() {
		c := snap()
		s.counters = &c
		return s.writeLocked()
	}
	return nil
}

// FlushCounters writes the final state of a word-major sweep with the given
// counter snapshot (consistent with all committed words). Call it after the
// sweep's workers have stopped.
func (s *State) FlushCounters(c Counters) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = &c
	return s.writeLocked()
}

// Flush writes the current state if anything was committed since the last
// write. Call it after the sweep stops, on success and on error alike — the
// file then reflects every committed unit, not just the last cadence write.
// For a word-major sweep a dirty flush is refused silently: the done bits
// may be ahead of the last counter snapshot, and writing the pair would be
// inconsistent — the word-major success path is FlushCounters, and on error
// the file keeps the last consistent cadence write.
func (s *State) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty || s.kind == KindWords {
		return nil
	}
	return s.writeLocked()
}

func (s *State) dueLocked() bool {
	//serlint:allow detsource checkpoint write cadence is scheduling only; it decides when to persist, never what is persisted
	return s.cp.interval <= 0 || time.Since(s.last) >= s.cp.interval
}

func (s *State) rangesLocked() []Range {
	var out []Range
	for u := 0; u < s.units; u++ {
		if s.doneBits[u/64]>>uint(u%64)&1 == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Hi == u {
			out[len(out)-1].Hi = u + 1
		} else {
			out = append(out, Range{Lo: u, Hi: u + 1})
		}
	}
	return out
}

// writeLocked serializes the state and atomically replaces the checkpoint
// file: write to a temp file in the same directory, fsync, rename. An
// in-memory checkpoint (empty path) skips the write.
func (s *State) writeLocked() error {
	if s.cp.path == "" {
		//serlint:allow detsource checkpoint write cadence is scheduling only; the timestamp gates the next write and is never serialized
		s.last = time.Now()
		s.dirty = false
		return nil
	}
	f := File{
		Version:     Version,
		Engine:      s.engine,
		Fingerprint: s.fp,
		Kind:        s.kind,
		Units:       s.units,
		Done:        s.rangesLocked(),
		Counters:    s.counters,
	}
	if s.kind == KindSites {
		f.Values = make([]uint64, 0, s.doneCount)
		for _, r := range f.Done {
			for u := r.Lo; u < r.Hi; u++ {
				f.Values = append(f.Values, s.values[u])
			}
		}
	}
	f.Checksum = f.checksum()
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	dir := filepath.Dir(s.cp.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.cp.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.cp.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resume: %w", werr)
	}
	//serlint:allow detsource checkpoint write cadence is scheduling only; the timestamp gates the next write and is never serialized
	s.last = time.Now()
	s.dirty = false
	return nil
}
