package core

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// This file implements engine checkpoint/restore: the complete detector
// state of an optimized Engine — the sharded variable table (Write/Read
// Info records with their memoized locksets, positions, and
// happens-before caches), the per-thread lock records, the retained
// synchronization event list, the governor ladder position, and every
// Stats counter — serialized to a checksummed snapshot and rebuilt into
// a fresh engine. A restored engine is stats-identical to one that
// never stopped: replaying the suffix of a trace after restore yields
// the same verdicts, the same Figure 5 rule-fire counts, and the same
// Stats as the uninterrupted run (pinned by TestCheckpointEveryPrefix).
//
// The format mirrors the streaming trace format's durability story: a
// header line identifying the format, then one body line whose payload
// carries a CRC-32 (IEEE), so a torn or bit-rotten snapshot is detected
// on load instead of silently restoring a corrupt detector.
//
//	{"format":"goldilocks-checkpoint","version":1}
//	{"engine":{...},"crc":"7f1c0d3a"}
//
// Checkpointing is two steps. Capture encodes the payload straight from
// the live engine and requires quiescence: the caller must ensure no
// concurrent Step/Read/Write/Sync while it runs (goldilocksd captures
// from the session's own worker). It re-encodes only the variables
// whose state changed since the engine's previous capture and copies
// the others' bytes from that capture. Encode frames the payload with
// its checksum and may run on any goroutine while the engine keeps
// stepping. Restore builds a brand-new engine; the ckpt* types below
// are its decode schema, and Capture writes the same bytes json.Marshal
// of a ckptPayload would.

// CheckpointFormatName identifies the snapshot format.
const CheckpointFormatName = "goldilocks-checkpoint"

// CheckpointFormatVersion is the current snapshot version.
const CheckpointFormatVersion = 1

type ckptHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type ckptBody struct {
	Engine json.RawMessage `json:"engine"`
	CRC    string          `json:"crc"`
}

// ckptOptions is Options minus the non-serializable attachments
// (Telemetry, Injector), which the restoring process supplies fresh,
// plus five fields for techniques that have no option: SC3MaxSegment,
// Memoize, HBCache, FastPath and VarShards. Capture writes their
// constants (sc3MaxSegment, true, true, true, varShardCount), the values
// every checkpoint written with default options already carries.
// Restore ignores them: a checkpoint that carries other values restores
// into the same verdicts.
type ckptOptions struct {
	SC1              bool               `json:"sc1,omitempty"`
	SC2              bool               `json:"sc2,omitempty"`
	SC3              bool               `json:"sc3,omitempty"`
	SC3MaxSegment    int                `json:"sc3_max_segment,omitempty"`
	XactSC           bool               `json:"xact_sc,omitempty"`
	Memoize          bool               `json:"memoize,omitempty"`
	HBCache          bool               `json:"hb_cache,omitempty"`
	FastPath         bool               `json:"fast_path,omitempty"`
	DisableAfterRace bool               `json:"disable_after_race,omitempty"`
	GCThreshold      int                `json:"gc_threshold,omitempty"`
	GCTrimFraction   float64            `json:"gc_trim_fraction,omitempty"`
	PartialEager     bool               `json:"partial_eager,omitempty"`
	TxnSemantics     event.TxnSemantics `json:"txn_semantics,omitempty"`
	OnError          uint8              `json:"on_error,omitempty"`
	MemoryBudget     int                `json:"memory_budget,omitempty"`
	VarShards        int                `json:"var_shards,omitempty"`
	BrokenRule       int                `json:"broken_rule,omitempty"`
}

type ckptElem struct {
	K event.FieldID `json:"k"` // ElemKind (FieldID-typed to keep tags terse)
	T event.Tid     `json:"t,omitempty"`
	O event.Addr    `json:"o,omitempty"`
	F event.FieldID `json:"f,omitempty"`
}

type ckptInfo struct {
	Owner   event.Tid        `json:"t"`
	Pos     uint64           `json:"pos"`
	OrigSeq uint64           `json:"orig"`
	ALock   event.Addr       `json:"alock,omitempty"`
	Xact    bool             `json:"xact,omitempty"`
	Action  event.JSONAction `json:"a"`
	Lockset []ckptElem       `json:"ls"`
	HBAfter []event.Tid      `json:"hb,omitempty"`
}

type ckptVar struct {
	Obj          event.Addr    `json:"o"`
	Field        event.FieldID `json:"f"`
	Write        *ckptInfo     `json:"w,omitempty"`
	Reads        []ckptInfo    `json:"r,omitempty"` // sorted by owner tid
	ReadsAllXact bool          `json:"rx,omitempty"`
	Disabled     bool          `json:"disabled,omitempty"`
	Quarantined  bool          `json:"quarantined,omitempty"`
}

type ckptThread struct {
	Tid   event.Tid    `json:"t"`
	Stack []event.Addr `json:"stack,omitempty"` // distinct held monitors, acquisition order
	Depth []int        `json:"depth,omitempty"` // reentrancy count per stack entry
}

// ckptChan is one channel's conveyor state (the ChanTracker entry).
// Absent from pre-channel snapshots, so version 1 stays readable.
type ckptChan struct {
	Obj    event.Addr `json:"o"`
	Cap    int32      `json:"cap,omitempty"`
	Sends  uint64     `json:"sends,omitempty"`
	Recvs  uint64     `json:"recvs,omitempty"`
	Closed bool       `json:"closed,omitempty"`
}

type ckptList struct {
	HeadSeq   uint64             `json:"head_seq"`
	Actions   []event.JSONAction `json:"actions"` // filled cells, head to tail
	Enqueued  uint64             `json:"enqueued"`
	Collected uint64             `json:"collected"`
}

// ckptCounters carries every Stats field plus the internals Stats is
// derived from, so the restored engine's Stats() is bit-identical.
type ckptCounters struct {
	AccessesChecked uint64 `json:"accesses_checked,omitempty"`
	PairChecks      uint64 `json:"pair_checks,omitempty"`
	SC1Hits         uint64 `json:"sc1_hits,omitempty"`
	SC2Hits         uint64 `json:"sc2_hits,omitempty"`
	SC3Hits         uint64 `json:"sc3_hits,omitempty"`
	XactHits        uint64 `json:"xact_hits,omitempty"`
	HBCacheHits     uint64 `json:"hb_cache_hits,omitempty"`
	FastPathHits    uint64 `json:"fast_path_hits,omitempty"` // carried: nothing counts it any more
	FullWalks       uint64 `json:"full_walks,omitempty"`
	WalkCells       uint64 `json:"walk_cells,omitempty"`
	Races           uint64 `json:"races,omitempty"`
	DegradedChecks  uint64 `json:"degraded_checks,omitempty"`
	VarsTracked     uint64 `json:"vars_tracked,omitempty"`
	VarsFreed       uint64 `json:"vars_freed,omitempty"`
	Collections     uint64 `json:"collections,omitempty"`
	InfosAdvanced   uint64 `json:"infos_advanced,omitempty"`
	PanicsRecovered uint64 `json:"panics_recovered,omitempty"`
	VarsQuarantined uint64 `json:"vars_quarantined,omitempty"`
	Rung            int32  `json:"rung,omitempty"`
	Escalations     uint64 `json:"escalations,omitempty"`
	AggressiveGCs   uint64 `json:"aggressive_gcs,omitempty"`
	CacheSheds      uint64 `json:"cache_sheds,omitempty"`
	EagerSweeps     uint64 `json:"eager_sweeps,omitempty"`
	Degraded        bool   `json:"degraded,omitempty"`
}

type ckptPayload struct {
	Opts     ckptOptions  `json:"opts"`
	List     ckptList     `json:"list"`
	Threads  []ckptThread `json:"threads,omitempty"` // sorted by tid
	Chans    []ckptChan   `json:"chans,omitempty"`   // sorted by obj
	Vars     []ckptVar    `json:"vars,omitempty"`    // sorted by (obj, field)
	Counters ckptCounters `json:"counters"`
	// Telemetry counters, present when the checkpointed engine had
	// telemetry attached: event-level rule fires and walk-effect hits
	// (indexed 0..NumRules), added into the restoring telemetry so
	// rule-fire counts stay linearization-exact across a restart.
	RuleFires    []uint64 `json:"rule_fires,omitempty"`
	WalkRuleHits []uint64 `json:"walk_rule_hits,omitempty"`
}

// RestoreAttach carries the process-local attachments a restored engine
// cannot read from the snapshot: a telemetry bundle (checkpointed rule
// fires are added into it) and a fault injector. Both may be nil.
type RestoreAttach struct {
	Telemetry *obs.Telemetry
	Injector  *resilience.Injector
}

// Snapshot is an engine's complete detector state, encoded at a
// quiescent point: the checkpoint payload, ready to be framed. The
// engine never writes to a body it has handed out until the snapshot is
// released, so a Snapshot can be written on another goroutine while the
// engine keeps stepping.
type Snapshot struct {
	buf *ckptBuf
	err error // from json.Marshal of a fixed-shape part (a NaN option)
}

// Release lets the engine recycle the snapshot's body once the engine
// no longer needs it to copy from. The snapshot must not be used after.
// A snapshot that is never released is simply garbage collected.
func (s *Snapshot) Release() {
	s.buf.unref()
	s.buf = nil
}

// ckptBuf is a capture body. Two references share it: the Snapshot
// handed out, until it is released, and the engine, until a newer
// capture replaces it as the body to copy from. It goes back to
// ckptBufs when both have let go.
type ckptBuf struct {
	b    []byte
	refs atomic.Int32
}

// ckptBufs recycles capture bodies across captures and engines.
var ckptBufs = sync.Pool{New: func() any { return new(ckptBuf) }}

func (p *ckptBuf) unref() {
	if p != nil && p.refs.Add(-1) == 0 {
		ckptBufs.Put(p)
	}
}

// ckptPrefix is the header line and the opening of the body line.
var ckptPrefix = fmt.Sprintf("{\"format\":%q,\"version\":%d}\n{\"engine\":", CheckpointFormatName, CheckpointFormatVersion)

// ckptSuffixLen is the length of the body line's `,"crc":"xxxxxxxx"}\n`.
const ckptSuffixLen = len(`,"crc":"00000000"}`) + 1

// Checkpoint serializes the engine's complete detector state to w: a
// Capture followed by its Encode. The engine must be quiescent: no
// concurrent Step/Read/Write/Sync calls.
func (e *Engine) Checkpoint(w io.Writer) error {
	s := e.Capture()
	defer s.Release()
	return s.Encode(w)
}

// Len returns the number of bytes Encode writes.
func (s *Snapshot) Len() int { return len(ckptPrefix) + len(s.buf.b) + ckptSuffixLen }

// Encode writes the snapshot in the checkpoint format: the header line,
// then the body line assembled around the already encoded payload with
// its checksum.
func (s *Snapshot) Encode(w io.Writer) error {
	if s.err != nil {
		return s.err
	}
	if _, err := io.WriteString(w, ckptPrefix); err != nil {
		return err
	}
	if _, err := w.Write(s.buf.b); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, ",\"crc\":\"%08x\"}\n", crc32.ChecksumIEEE(s.buf.b))
	return err
}

// ckptReuse is what a capture keeps for the next one: its body, the
// span of every variable's encoding in it sorted by (obj, field), and
// the keys of the variables changed since. A variable changes from
// clean to dirty at most once between captures (varState.ckptClean),
// and that change, like the creation of a variable, appends its key to
// dirty. The next capture encodes only the dirty keys and copies every
// other span from the previous body. Every snapshot is still complete:
// reuse only saves the encoding work.
//
// What is kept is one capture's body and table, replaced by the next
// capture, plus a key list bounded by the cap the previous capture set.
// Past the cap the list is freed and tracking stops, so the next
// capture lists the whole table as a first capture does.
type ckptReuse struct {
	mu      sync.Mutex // serializes captures of one engine
	buf     *ckptBuf   // the last capture's body; read here, never written
	listLen int        // event list length and VarsTracked at that capture
	nvars   int
	vars    []ckptSpan
	spare   []ckptSpan // the table before last, reused as the next one

	// tracking is set by a capture and cleared when dirty reaches
	// dirtyCap; while it is clear, no key is noted and dirty is nil.
	tracking atomic.Bool
	dirtyMu  sync.Mutex
	dirty    []event.Variable
	dirtyCap int
}

func compareVars(a, b event.Variable) int {
	if c := cmp.Compare(a.Obj, b.Obj); c != 0 {
		return c
	}
	return cmp.Compare(a.Field, b.Field)
}

// ckptSpan locates one variable's encoding in a capture's body.
type ckptSpan struct {
	v        event.Variable
	off, end int
}

// body returns the last capture's body, or nil.
func (r *ckptReuse) body() []byte {
	if r.buf == nil {
		return nil
	}
	return r.buf.b
}

// markDirty clears vs.ckptClean, noting (o, d) if it was set: the
// variable's bytes in the last capture are stale. The caller holds
// vs.mu. An engine never captured only pays the branch.
func (e *Engine) markDirty(o event.Addr, d event.FieldID, vs *varState) {
	if vs.ckptClean {
		vs.ckptClean = false
		e.noteDirty(o, d)
	}
}

// noteDirty appends (o, d) to the dirty list while tracking is on. Past
// the cap it frees the list and stops tracking.
func (e *Engine) noteDirty(o event.Addr, d event.FieldID) {
	r := &e.ckpt
	if !r.tracking.Load() {
		return
	}
	r.dirtyMu.Lock()
	if len(r.dirty) < r.dirtyCap {
		r.dirty = append(r.dirty, event.Variable{Obj: o, Field: d})
	} else {
		r.dirty, r.dirtyCap = nil, 0
		r.tracking.Store(false)
	}
	r.dirtyMu.Unlock()
}

// ckptEncoder holds a capture's scratch slices, reused across variables.
type ckptEncoder struct {
	reads []*info
	elems []Elem
	tids  []event.Tid
}

// Capture encodes the engine's complete detector state. The engine must
// be quiescent: no concurrent Step/Read/Write/Sync calls. Only the
// variables changed since the engine's previous capture are encoded;
// the rest are copied from that capture's body. The payload is written
// field by field in the order, and with the omissions, json.Marshal of
// ckptPayload would produce, so the bytes do not depend on the reuse.
func (e *Engine) Capture() *Snapshot {
	r := &e.ckpt
	r.mu.Lock()
	defer r.mu.Unlock()

	// Pre-size from the previous body plus what the list and the table
	// grew by since: growing by reallocation would leave several
	// body-sized garbage buffers per capture.
	prev := len(r.body())
	listLen, nvars := e.list.len(), int(e.varsTracked.Load())
	hint := prev + prev/32 + 1024 + 64*max(listLen-r.listLen, 0) + 256*max(nvars-r.nvars, 0)
	r.listLen, r.nvars = listLen, nvars
	buf := ckptBufs.Get().(*ckptBuf)
	buf.refs.Store(2) // the snapshot's and the engine's
	b := slices.Grow(buf.b[:0], hint)
	var snap Snapshot

	o := e.opts
	b = append(b, `{"opts":`...)
	b = snap.appendMarshal(b, &ckptOptions{
		SC1: o.SC1, SC2: o.SC2, SC3: o.SC3, SC3MaxSegment: sc3MaxSegment,
		XactSC: o.XactSC, Memoize: true, HBCache: true,
		FastPath:         true,
		DisableAfterRace: o.DisableAfterRace,
		GCThreshold:      o.GCThreshold, GCTrimFraction: o.GCTrimFraction,
		PartialEager: o.PartialEager, TxnSemantics: o.TxnSemantics,
		OnError: uint8(o.OnError), MemoryBudget: o.MemoryBudget,
		VarShards: varShardCount, BrokenRule: o.BrokenRule,
	})
	b = e.appendList(b)

	// Per-thread lock records.
	var threads []ckptThread
	e.locks.Range(func(k, v any) bool {
		tl := v.(*threadLocks)
		tl.mu.Lock()
		ct := ckptThread{Tid: k.(event.Tid), Stack: slices.Clone(tl.stack)}
		for _, a := range ct.Stack {
			ct.Depth = append(ct.Depth, tl.held[a])
		}
		tl.mu.Unlock()
		threads = append(threads, ct)
		return true
	})
	if len(threads) > 0 {
		slices.SortFunc(threads, func(a, b ckptThread) int { return cmp.Compare(a.Tid, b.Tid) })
		b = snap.appendMarshal(append(b, `,"threads":`...), threads)
	}

	// Channel conveyor state.
	var chans []ckptChan
	e.chanMu.Lock()
	for c, cs := range e.chans.Snapshot() {
		chans = append(chans, ckptChan{Obj: c, Cap: cs.Cap, Sends: cs.Sends, Recvs: cs.Recvs, Closed: cs.Closed})
	}
	e.chanMu.Unlock()
	if len(chans) > 0 {
		slices.SortFunc(chans, func(a, b ckptChan) int { return cmp.Compare(a.Obj, b.Obj) })
		b = snap.appendMarshal(append(b, `,"chans":`...), chans)
	}

	b = e.appendVars(b)

	// Counters: the summed stat stripes plus the off-path atomics.
	s := e.Stats()
	b = snap.appendMarshal(append(b, `,"counters":`...), &ckptCounters{
		AccessesChecked: s.AccessesChecked, PairChecks: s.PairChecks,
		SC1Hits: s.SC1Hits, SC2Hits: s.SC2Hits, SC3Hits: s.SC3Hits,
		XactHits: s.XactHits, HBCacheHits: s.HBCacheHits,
		FastPathHits: s.FastPathHits,
		FullWalks:    s.FullWalks, WalkCells: s.WalkCells, Races: s.Races,
		DegradedChecks: s.DegradedChecks, VarsTracked: s.VarsTracked, VarsFreed: s.VarsFreed,
		Collections: s.Collections, InfosAdvanced: s.InfosAdvanced,
		PanicsRecovered: s.PanicsRecovered, VarsQuarantined: s.VarsQuarantined,
		Rung: int32(s.GovernorRung), Escalations: s.Escalations,
		AggressiveGCs: s.AggressiveGCs, CacheSheds: s.CacheSheds,
		EagerSweeps: s.EagerSweeps, Degraded: e.degraded.Load(),
	})

	if e.tel != nil {
		fires := e.tel.RuleFires()
		b = appendUints(append(b, `,"rule_fires":`...), fires[:])
		var hits [obs.NumRules + 1]uint64
		for i := 1; i <= obs.NumRules; i++ {
			hits[i] = e.tel.WalkRuleHits[i].Load()
		}
		b = appendUints(append(b, `,"walk_rule_hits":`...), hits[:])
	}
	buf.b = append(b, '}')
	r.buf.unref()
	r.buf, snap.buf = buf, buf
	return &snap
}

// appendMarshal appends json.Marshal(v): the fixed-shape parts of the
// payload are small, so reflection costs little there. The first error
// is kept for Encode to return.
func (s *Snapshot) appendMarshal(b []byte, v any) []byte {
	raw, err := json.Marshal(v)
	if s.err == nil {
		s.err = err
	}
	return append(b, raw...)
}

func appendUints(b []byte, xs []uint64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, ']')
}

// appendList encodes the event list: the retained filled cells are a
// contiguous seq range from head to the sentinel (trim only ever drops
// a prefix).
func (e *Engine) appendList(b []byte) []byte {
	e.list.mu.Lock()
	head := e.list.head
	e.list.mu.Unlock()
	tail := e.list.snapshotTail()
	b = append(b, `,"list":{"head_seq":`...)
	b = strconv.AppendUint(b, head.seq, 10)
	b = append(b, `,"actions":`...)
	n := 0
	for c := head; c != tail && c != nil && c.filled; c = c.next {
		if n == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = event.AppendJSON(b, c.action)
		n++
	}
	switch {
	case n > 0:
		b = append(b, ']')
	case e.list.length.Load() > 0:
		b = append(b, "[]"...)
	default:
		b = append(b, "null"...)
	}
	b = append(b, `,"enqueued":`...)
	b = strconv.AppendUint(b, e.list.enqueued.Load(), 10)
	b = append(b, `,"collected":`...)
	b = strconv.AppendUint(b, e.list.collected.Load(), 10)
	return append(b, '}')
}

// appendVars encodes the variable table, sorted by (obj, field): every
// state linked in the table, including info-less quarantined ones.
// (Alloc unlinks the states it drops, so those are not written.) One
// merge loop walks the listed keys and the previous capture's spans:
// a listed key is encoded from its state, or left out if the variable
// no longer exists, and a span that is not listed is copied from the
// previous body. A first capture lists every key and has no spans.
func (e *Engine) appendVars(b []byte) []byte {
	r := &e.ckpt
	keys, prev := e.listKeys()
	body := r.body()
	cur := slices.Grow(r.spare[:0], max(len(prev), len(keys)))
	var enc ckptEncoder
	for i, j := 0, 0; i < len(keys) || j < len(prev); {
		c := -1 // keys[i] against prev[j]: <0 the key comes first, >0 the span, 0 both
		if j < len(prev) {
			c = 1
			if i < len(keys) {
				c = compareVars(keys[i], prev[j].v)
			}
		}
		if c > 0 {
			p := prev[j]
			j++
			b = appendVarsSep(b, len(cur))
			off := len(b)
			b = append(b, body[p.off:p.end]...)
			cur = append(cur, ckptSpan{v: p.v, off: off, end: len(b)})
			continue
		}
		v := keys[i]
		i++
		if c == 0 {
			j++ // listed, so the previous span is stale
		}
		vs := e.lookupState(v.Obj, v.Field)
		if vs == nil {
			continue // dropped since the previous capture
		}
		b = appendVarsSep(b, len(cur))
		off := len(b)
		vs.mu.Lock()
		b = enc.appendVar(b, v.Obj, v.Field, vs)
		vs.ckptClean = true
		vs.mu.Unlock()
		cur = append(cur, ckptSpan{v: v, off: off, end: len(b)})
	}
	if len(cur) > 0 {
		b = append(b, ']')
	}
	r.vars, r.spare = cur, r.vars[:0]

	// Re-arm the dirty list for the next capture, reusing this one's
	// keys unless they outgrew the new cap.
	r.dirtyMu.Lock()
	r.dirtyCap = 2*len(cur) + 1024
	if cap(keys) > 2*r.dirtyCap {
		keys = nil
	}
	r.dirty = keys[:0]
	r.tracking.Store(true)
	r.dirtyMu.Unlock()
	return b
}

// appendVarsSep opens the vars array before its first entry and
// separates the others.
func appendVarsSep(b []byte, n int) []byte {
	if n == 0 {
		return append(b, `,"vars":[`...)
	}
	return append(b, ',')
}

// listKeys returns the keys to encode, sorted and distinct, and the
// previous capture's spans. While tracking, those are the dirty keys;
// otherwise (a first capture, a restored engine, an overflowed list)
// every linked key is listed and there are no spans.
func (e *Engine) listKeys() ([]event.Variable, []ckptSpan) {
	r := &e.ckpt
	r.dirtyMu.Lock()
	keys, tracking := r.dirty, r.tracking.Load()
	r.dirty, r.dirtyCap = nil, 0
	r.tracking.Store(false)
	r.dirtyMu.Unlock()
	if tracking {
		slices.SortFunc(keys, compareVars)
		return slices.Compact(keys), r.vars
	}
	n := 0
	for i := range e.varShards {
		sh := &e.varShards[i]
		sh.mu.RLock()
		for _, fields := range sh.vars {
			n += len(fields)
		}
		sh.mu.RUnlock()
	}
	keys = make([]event.Variable, 0, n)
	for i := range e.varShards {
		sh := &e.varShards[i]
		sh.mu.RLock()
		for obj, fields := range sh.vars {
			for field := range fields {
				keys = append(keys, event.Variable{Obj: obj, Field: field})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(keys, compareVars)
	return keys, nil
}

// appendVar encodes one variable state as a ckptVar; the caller holds
// vs.mu.
func (enc *ckptEncoder) appendVar(b []byte, obj event.Addr, field event.FieldID, vs *varState) []byte {
	b = append(b, `{"o":`...)
	b = strconv.AppendInt(b, int64(obj), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(field), 10)
	if vs.write != nil {
		b = enc.appendInfo(append(b, `,"w":`...), vs.write)
	}
	if len(vs.reads) > 0 {
		enc.reads = enc.reads[:0]
		for _, in := range vs.reads {
			enc.reads = append(enc.reads, in)
		}
		slices.SortFunc(enc.reads, func(a, b *info) int { return cmp.Compare(a.owner, b.owner) })
		b = append(b, `,"r":[`...)
		for i, in := range enc.reads {
			if i > 0 {
				b = append(b, ',')
			}
			b = enc.appendInfo(b, in)
		}
		b = append(b, ']')
	}
	if vs.readsAllXact {
		b = append(b, `,"rx":true`...)
	}
	if vs.disabled {
		b = append(b, `,"disabled":true`...)
	}
	if vs.quarantined {
		b = append(b, `,"quarantined":true`...)
	}
	return append(b, '}')
}

// appendInfo encodes one Info record as a ckptInfo.
func (enc *ckptEncoder) appendInfo(b []byte, in *info) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(in.owner), 10)
	b = append(b, `,"pos":`...)
	b = strconv.AppendUint(b, in.pos.seq, 10)
	b = append(b, `,"orig":`...)
	b = strconv.AppendUint(b, in.origSeq, 10)
	if in.alock != event.NilAddr {
		b = append(b, `,"alock":`...)
		b = strconv.AppendInt(b, int64(in.alock), 10)
	}
	if in.xact {
		b = append(b, `,"xact":true`...)
	}
	b = event.AppendJSON(append(b, `,"a":`...), in.action)

	// "ls" has no omitempty: the format writes an empty set as null.
	b = append(b, `,"ls":`...)
	enc.elems = in.ls.appendElems(enc.elems[:0])
	if len(enc.elems) == 0 {
		b = append(b, "null"...)
	} else {
		slices.SortFunc(enc.elems, compareElems)
		for i, el := range enc.elems {
			if i == 0 {
				b = append(b, `[{"k":`...)
			} else {
				b = append(b, `,{"k":`...)
			}
			b = strconv.AppendUint(b, uint64(el.Kind), 10)
			if el.Tid != event.NoTid {
				b = append(b, `,"t":`...)
				b = strconv.AppendInt(b, int64(el.Tid), 10)
			}
			if el.Obj != event.NilAddr {
				b = append(b, `,"o":`...)
				b = strconv.AppendInt(b, int64(el.Obj), 10)
			}
			if el.Field != 0 {
				b = append(b, `,"f":`...)
				b = strconv.AppendInt(b, int64(el.Field), 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}

	if len(in.hbAfter) > 0 {
		enc.tids = enc.tids[:0]
		for t := range in.hbAfter {
			enc.tids = append(enc.tids, t)
		}
		slices.Sort(enc.tids)
		for i, t := range enc.tids {
			if i == 0 {
				b = append(b, `,"hb":[`...)
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func compareElems(a, b Elem) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tid, b.Tid); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Obj, b.Obj); c != 0 {
		return c
	}
	return cmp.Compare(a.Field, b.Field)
}

// RestoreEngine rebuilds an engine from a checkpoint written by
// Checkpoint. The snapshot carries the engine's configuration; attach
// supplies the process-local telemetry and fault-injection attachments.
// A corrupt snapshot (torn write, checksum mismatch, unknown version)
// is an error — never a silently wrong detector.
//
// RestoreEngine consumes exactly the checkpoint's two lines and nothing
// past them: callers that pass a *bufio.Reader can keep reading their
// own trailing records from the same stream (composed snapshots rely on
// this — e.g. a serializability checker appending its graph state after
// the engine snapshot).
func RestoreEngine(r io.Reader, attach RestoreAttach) (*Engine, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	line, err := readCkptLine(br)
	if err != nil {
		return nil, fmt.Errorf("core: empty checkpoint")
	}
	var hdr ckptHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != CheckpointFormatName {
		return nil, fmt.Errorf("core: not a %s snapshot", CheckpointFormatName)
	}
	if hdr.Version != CheckpointFormatVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", hdr.Version)
	}
	line, err = readCkptLine(br)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint body missing (torn write?)")
	}
	var body ckptBody
	if err := json.Unmarshal(line, &body); err != nil || len(body.Engine) == 0 {
		return nil, fmt.Errorf("core: unreadable checkpoint body")
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body.Engine)); got != body.CRC {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (got %s, recorded %s)", got, body.CRC)
	}
	var p ckptPayload
	if err := json.Unmarshal(body.Engine, &p); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return restore(&p, attach)
}

// readCkptLine reads one newline-terminated record without consuming
// anything beyond it. A final unterminated line (no trailing newline
// before EOF) is accepted; an empty read is an error.
func readCkptLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if len(line) > 0 && line[len(line)-1] == '\n' {
		return line[:len(line)-1], nil
	}
	if err == io.EOF && len(line) > 0 {
		return line, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}

func restore(p *ckptPayload, attach RestoreAttach) (*Engine, error) {
	co := p.Opts
	opts := Options{
		SC1: co.SC1, SC2: co.SC2, SC3: co.SC3, XactSC: co.XactSC,
		DisableAfterRace: co.DisableAfterRace,
		GCThreshold:      co.GCThreshold, GCTrimFraction: co.GCTrimFraction,
		PartialEager: co.PartialEager, TxnSemantics: co.TxnSemantics,
		OnError: resilience.ErrorPolicy(co.OnError), MemoryBudget: co.MemoryBudget,
		BrokenRule: co.BrokenRule,
		Telemetry:  attach.Telemetry, Injector: attach.Injector,
	}
	e := NewEngine(opts)

	// Event list: rebuild the contiguous cell chain and a seq index for
	// re-anchoring Info positions.
	cells := make(map[uint64]*cell, len(p.List.Actions)+1)
	head := &cell{seq: p.List.HeadSeq}
	cells[head.seq] = head
	cur := head
	for _, ja := range p.List.Actions {
		a, err := ja.Action()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint list: %w", err)
		}
		cur.action = a
		cur.filled = true
		cur.next = &cell{seq: cur.seq + 1}
		cur = cur.next
		cells[cur.seq] = cur
	}
	e.list.head = head
	e.list.tail.Store(cur)
	e.list.length.Store(int64(len(p.List.Actions)))
	e.list.enqueued.Store(p.List.Enqueued)
	e.list.collected.Store(p.List.Collected)

	// Per-thread lock records, with published snapshots.
	for _, ct := range p.Threads {
		if len(ct.Depth) != len(ct.Stack) {
			return nil, fmt.Errorf("core: checkpoint thread %v: %d stack entries, %d depths", ct.Tid, len(ct.Stack), len(ct.Depth))
		}
		tl := &threadLocks{held: make(map[event.Addr]int, len(ct.Stack))}
		tl.stack = slices.Clone(ct.Stack)
		for i, a := range ct.Stack {
			tl.held[a] = ct.Depth[i]
		}
		tl.mu.Lock()
		tl.publishLocked()
		tl.mu.Unlock()
		e.locks.Store(ct.Tid, tl)
	}

	// Channel conveyor state.
	if len(p.Chans) > 0 {
		snap := make(map[event.Addr]event.ChanState, len(p.Chans))
		for _, cc := range p.Chans {
			snap[cc.Obj] = event.ChanState{Cap: cc.Cap, Sends: cc.Sends, Recvs: cc.Recvs, Closed: cc.Closed}
		}
		e.chans.Restore(snap)
	}

	// Variable table.
	for _, cv := range p.Vars {
		vs := &varState{
			readsAllXact: cv.ReadsAllXact,
			disabled:     cv.Disabled,
			quarantined:  cv.Quarantined,
		}
		if cv.Write != nil {
			in, err := restoreInfo(*cv.Write, cells)
			if err != nil {
				return nil, err
			}
			vs.write = in
		}
		if len(cv.Reads) > 0 {
			vs.reads = make(map[event.Tid]*info, len(cv.Reads))
			for _, ci := range cv.Reads {
				in, err := restoreInfo(ci, cells)
				if err != nil {
					return nil, err
				}
				vs.reads[ci.Owner] = in
			}
		}
		sh := &e.varShards[varHash(cv.Obj, cv.Field)&shardIndex]
		fields, ok := sh.vars[cv.Obj]
		if !ok {
			fields = make(map[event.FieldID]*varState)
			sh.vars[cv.Obj] = fields
		}
		fields[cv.Field] = vs
	}

	// Counters: the hot-path sums land on stripe 0 (Stats sums stripes,
	// so the distribution is unobservable); the rest on their atomics.
	c := p.Counters
	st := &e.stats[0]
	st.accessesChecked.Store(c.AccessesChecked)
	st.pairChecks.Store(c.PairChecks)
	st.sc1Hits.Store(c.SC1Hits)
	st.sc2Hits.Store(c.SC2Hits)
	st.sc3Hits.Store(c.SC3Hits)
	st.xactHits.Store(c.XactHits)
	st.hbCacheHits.Store(c.HBCacheHits)
	st.fastPathHits.Store(c.FastPathHits)
	st.fullWalks.Store(c.FullWalks)
	st.walkCells.Store(c.WalkCells)
	st.races.Store(c.Races)
	st.degradedChecks.Store(c.DegradedChecks)
	e.varsTracked.Store(c.VarsTracked)
	e.varsFreed.Store(c.VarsFreed)
	e.collections.Store(c.Collections)
	e.infosAdvanced.Store(c.InfosAdvanced)
	e.panicsRecovered.Store(c.PanicsRecovered)
	e.varsQuarantined.Store(c.VarsQuarantined)
	e.rung.Store(c.Rung)
	e.escalations.Store(c.Escalations)
	e.aggressiveGCs.Store(c.AggressiveGCs)
	e.cacheSheds.Store(c.CacheSheds)
	e.eagerSweeps.Store(c.EagerSweeps)
	e.degraded.Store(c.Degraded)

	if attach.Telemetry != nil {
		for i := 1; i <= obs.NumRules && i < len(p.RuleFires); i++ {
			attach.Telemetry.Rules[i].Add(p.RuleFires[i])
		}
		for i := 1; i <= obs.NumRules && i < len(p.WalkRuleHits); i++ {
			attach.Telemetry.WalkRuleHits[i].Add(p.WalkRuleHits[i])
		}
	}
	return e, nil
}

// restoreInfo rebuilds one Info record and re-acquires its list
// reference.
func restoreInfo(ci ckptInfo, cells map[uint64]*cell) (*info, error) {
	pos, ok := cells[ci.Pos]
	if !ok {
		return nil, fmt.Errorf("core: checkpoint info at seq %d: cell not retained", ci.Pos)
	}
	a, err := ci.Action.Action()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint info action: %w", err)
	}
	ls := NewLockset()
	for _, el := range ci.Lockset {
		ls.Add(Elem{Kind: ElemKind(el.K), Tid: el.T, Obj: el.O, Field: el.F})
	}
	in := &info{
		pos: pos, owner: ci.Owner, ls: ls, alock: ci.ALock,
		xact: ci.Xact, action: a, origSeq: ci.OrigSeq,
	}
	if len(ci.HBAfter) > 0 {
		in.hbAfter = make(map[event.Tid]struct{}, len(ci.HBAfter))
		for _, t := range ci.HBAfter {
			in.hbAfter[t] = struct{}{}
		}
	}
	pos.refs.Add(1)
	return in, nil
}
