package core

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"weak"

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
// The snapshot is a file of the record format (event/record.go): a
// header line, then one record holding the payload under "engine", so
// a torn or bit-rotten snapshot is detected on load instead of
// silently restoring a corrupt detector.
//
//	{"format":"goldilocks-checkpoint","version":1}
//	{"engine":{...},"crc":"7f1c0d3a"}
//
// Checkpointing is two steps. The worker step, CaptureRecords, copies
// the state into compact records and requires quiescence: the caller
// must ensure no concurrent Step/Read/Write/Sync while it runs
// (goldilocksd captures from the session's own worker). It copies only
// the variables whose state changed since the engine's previous
// capture. The writer step, Records.AppendTo, may run on any goroutine
// while the engine keeps stepping: it sorts the records, encodes them,
// copies the other variables' bytes from the previous encode's output
// and frames the payload with its checksum. Checkpoint runs the two
// steps back to back. Restore builds a brand-new engine; the
// ckpt* types below are its decode schema, and the writer step writes
// the same bytes json.Marshal of a ckptPayload would.

// CheckpointFormatName identifies the snapshot format.
const CheckpointFormatName = "goldilocks-checkpoint"

// CheckpointFormatVersion is the current snapshot version.
const CheckpointFormatVersion = 1

// ckptOptions is Options minus the non-serializable Injector, which a
// restored engine does not have, plus five fields for techniques that
// have no option: SC3MaxSegment, Memoize, HBCache, FastPath and
// VarShards. Capture writes their constants (sc3MaxSegment, true, true,
// true, varShardCount), the values every checkpoint written with
// default options already carries. Restore ignores them: a checkpoint
// that carries other values restores into the same verdicts.
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
	// Rule counters, present when some count is nonzero: event-level
	// rule fires and walk-effect hits (indexed 0..NumRules), added into
	// the restored engine's own so rule-fire counts stay
	// linearization-exact across a restart.
	RuleFires    []uint64 `json:"rule_fires,omitempty"`
	WalkRuleHits []uint64 `json:"walk_rule_hits,omitempty"`
}

// Records is an engine's detector state copied at a quiescent point by
// CaptureRecords, the worker step of a checkpoint: compact records and
// no encoding. The small fixed parts (options, lock stacks, channels,
// counters, rule fires) are complete. The variables are the ones
// changed since the engine's previous capture, and the list actions the
// ones enqueued since, or everything for a first capture. AppendTo, the
// writer step, encodes the records on any goroutine while the engine
// keeps stepping.
//
// A capture's variables and actions are a delta against the capture
// before it, so one engine's captures are encoded in capture order, and
// every capture taken is encoded. A capture that is dropped makes the
// next encode fail, and the capture after that copies everything again.
// A caller that does not need a checkpoint now should not capture: the
// changes keep accumulating for the next capture taken.
type Records struct {
	e         *Engine
	seq, base uint64 // this capture's number and the one its delta follows
	full      bool   // every variable is listed: the delta needs no base
	nvars     int    // VarsTracked at the capture, for sizing the output

	opts                ckptOptions
	headSeq             uint64
	actions             []actionRec // list cells from seq listFrom to the tail
	listFrom            uint64
	listLen             int64 // the list's length counter
	enqueued, collected uint64
	threads             []ckptThread // Stack and Depth slice stack and depth
	stack               []event.Addr
	depth               []int
	chans               []ckptChan
	counters            ckptCounters
	fires, hits         [obs.NumRules + 1]uint64

	vars  []varRec
	infos []infoRec // each variable's write Info first, then its reads
	elems []Elem    // the Infos' lockset elements
	tids  []event.Tid
	sets  []event.Variable // the commit actions' read and write sets
}

// varRec is one variable's copied state: n Infos from infos[info].
type varRec struct {
	v       event.Variable
	info, n int32
	flags   uint8
}

const (
	recWrite        uint8 = 1 << iota // the first Info is the write
	recReadsAllXact                   // varState.readsAllXact
	recDisabled                       // varState.disabled
	recQuarantined                    // varState.quarantined
	recGone                           // dropped since the previous capture
)

// infoRec is one Info record's copied state: its lockset is
// elems[elem:elem+nelem] and its hbAfter set tids[tid:tid+ntid].
type infoRec struct {
	owner       event.Tid
	xact        bool
	alock       event.Addr
	pos, orig   uint64
	action      actionRec
	elem, nelem int32
	tid, ntid   int32
}

// actionRec is an event.Action without its slices, so that the bulk of
// the records holds no pointers for the collector to scan: a commit's
// read set is Records.sets[set:set+nr] and its write set the nw
// entries after that.
type actionRec struct {
	kind        event.Kind
	thread      event.Tid
	obj         event.Addr
	field       event.FieldID
	peer        event.Tid
	set, nr, nw int32
}

// copyAction copies a into an actionRec, its sets into rs.sets.
func (rs *Records) copyAction(a event.Action) actionRec {
	ar := actionRec{
		kind: a.Kind, thread: a.Thread, obj: a.Obj, field: a.Field, peer: a.Peer,
		set: int32(len(rs.sets)), nr: int32(len(a.Reads)), nw: int32(len(a.Writes)),
	}
	if ar.nr+ar.nw > 0 {
		rs.sets = append(append(rs.sets, a.Reads...), a.Writes...)
	}
	return ar
}

// action rebuilds the event.Action of ar, its sets sliced from rs.sets.
func (rs *Records) action(ar actionRec) event.Action {
	a := event.Action{Kind: ar.kind, Thread: ar.thread, Obj: ar.obj, Field: ar.field, Peer: ar.peer}
	if ar.nr > 0 {
		a.Reads = rs.sets[ar.set : ar.set+ar.nr]
	}
	if ar.nw > 0 {
		a.Writes = rs.sets[ar.set+ar.nr : ar.set+ar.nr+ar.nw]
	}
	return a
}

// errCkptOrder is the writer step's refusal of a capture whose delta
// does not follow the last encoded one.
var errCkptOrder = errors.New("core: checkpoint capture encoded out of capture order")

// Checkpoint serializes the engine's complete detector state to w, both
// steps back to back. The engine must be quiescent: no concurrent
// Step/Read/Write/Sync calls.
func (e *Engine) Checkpoint(w io.Writer) error {
	b, _, err := e.CaptureRecords().AppendTo(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ckptReuse is what one engine's checkpoints keep between captures.
//
// The worker step's half: the keys of the variables changed since the
// last capture. A variable changes from clean to dirty at most once
// between captures (varState.ckptClean), and that change, like the
// creation of a variable, appends its key to dirty. The next capture
// copies only the dirty keys' states. The key list is bounded by the
// cap the previous capture set: past it the list is freed and tracking
// stops, so the next capture lists the whole table as a first capture
// does.
//
// The writer step's half: the last encode's output and the span of
// every variable's encoding in it, sorted by (obj, field). The next
// encode writes the copied states and copies every other span from
// that output. Every checkpoint is still complete: reuse only saves
// work.
type ckptReuse struct {
	mu       sync.Mutex // serializes captures of one engine
	captures uint64     // captures taken
	// listTail is the list's tail at the last capture. It is weak: a
	// strong pointer would keep every cell trimmed after it alive until
	// the next capture, which may never come.
	listTail weak.Pointer[cell]

	// tracking is set by a capture and cleared when dirty reaches
	// dirtyCap; while it is clear, no key is noted and dirty is nil.
	tracking atomic.Bool
	dirtyMu  sync.Mutex
	dirty    []dirtyVar
	dirtyCap int

	encMu   sync.Mutex // serializes encodes of one engine's captures
	encoded uint64     // the capture buf and vars were encoded from
	buf     []byte
	bodyLen int // body and VarsTracked sizes at that encode
	nvars   int
	vars    []ckptSpan
	spare   []ckptSpan // the table before last, reused as the next one

	// The list actions encoded in buf: seq listSeq onwards, the first
	// starting at listStart, each ending at its listEnds entry.
	listSeq   uint64
	listStart int
	listEnds  []int
	listSpare []int
}

// recordsPool recycles Records storage across captures and engines.
var recordsPool = sync.Pool{New: func() any { return new(Records) }}

func compareVars(a, b event.Variable) int {
	if c := cmp.Compare(a.Obj, b.Obj); c != 0 {
		return c
	}
	return cmp.Compare(a.Field, b.Field)
}

// dirtyVar is a dirty list entry: the variable and the state noted,
// which saves the capture a table lookup.
type dirtyVar struct {
	v  event.Variable
	vs *varState
}

// ckptSpan locates one variable's encoding in an encode's output.
type ckptSpan struct {
	v        event.Variable
	off, end int
}

// markDirty clears vs.ckptClean, noting (o, d) if it was set: the
// variable's bytes in the last capture are stale. The caller holds
// vs.mu. An engine never captured only pays the branch.
func (e *Engine) markDirty(o event.Addr, d event.FieldID, vs *varState) {
	if vs.ckptClean {
		vs.ckptClean = false
		e.noteDirty(o, d, vs)
	}
}

// noteDirty appends (o, d) and its state to the dirty list while
// tracking is on. Past the cap it frees the list and stops tracking.
func (e *Engine) noteDirty(o event.Addr, d event.FieldID, vs *varState) {
	r := &e.ckpt
	if !r.tracking.Load() {
		return
	}
	r.dirtyMu.Lock()
	if len(r.dirty) < r.dirtyCap {
		r.dirty = append(r.dirty, dirtyVar{event.Variable{Obj: o, Field: d}, vs})
	} else {
		r.stopTrackingLocked()
	}
	r.dirtyMu.Unlock()
}

// stopTrackingLocked frees the dirty list and stops tracking, so the
// next capture lists every variable. The caller holds dirtyMu.
func (r *ckptReuse) stopTrackingLocked() {
	r.dirty, r.dirtyCap = nil, 0
	r.tracking.Store(false)
}

// CaptureRecords is the worker step of a checkpoint: it copies the
// engine's detector state into records, reusing the storage of records
// an earlier encode is done with. The engine must be quiescent: no
// concurrent Step/Read/Write/Sync calls. Only the variables changed
// since the engine's previous capture are copied.
func (e *Engine) CaptureRecords() *Records {
	r := &e.ckpt
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := recordsPool.Get().(*Records)
	rs.reset(e)
	r.captures++
	rs.seq, rs.base = r.captures, r.captures-1
	rs.nvars = int(e.varsTracked.Load())

	o := e.opts
	rs.opts = ckptOptions{
		SC1: o.SC1, SC2: o.SC2, SC3: o.SC3, SC3MaxSegment: sc3MaxSegment,
		XactSC: o.XactSC, Memoize: true, HBCache: true,
		FastPath:         true,
		DisableAfterRace: o.DisableAfterRace,
		GCThreshold:      o.GCThreshold, GCTrimFraction: o.GCTrimFraction,
		PartialEager: o.PartialEager, TxnSemantics: o.TxnSemantics,
		OnError: uint8(o.OnError), MemoryBudget: o.MemoryBudget,
		VarShards: varShardCount, BrokenRule: o.BrokenRule,
	}
	// Per-thread lock records. A thread's Stack and Depth stay valid
	// when stack and depth grow: growing never writes below their ends.
	e.locks.Range(func(k, v any) bool {
		tl := v.(*threadLocks)
		tl.mu.Lock()
		start := len(rs.stack)
		for _, a := range tl.stack {
			rs.stack = append(rs.stack, a)
			rs.depth = append(rs.depth, tl.held[a])
		}
		tl.mu.Unlock()
		end := len(rs.stack)
		rs.threads = append(rs.threads, ckptThread{Tid: k.(event.Tid),
			Stack: rs.stack[start:end:end], Depth: rs.depth[start:end:end]})
		return true
	})

	// Channel conveyor state.
	e.chanMu.Lock()
	for c, cs := range e.chans.Snapshot() {
		rs.chans = append(rs.chans, ckptChan{Obj: c, Cap: cs.Cap, Sends: cs.Sends, Recvs: cs.Recvs, Closed: cs.Closed})
	}
	e.chanMu.Unlock()

	e.copyVars(rs)
	e.copyList(rs)

	// Counters: the summed stat stripes plus the off-path atomics.
	s := e.Stats()
	rs.counters = ckptCounters{
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
	}
	rs.fires, rs.hits = e.RuleFires(), e.WalkRuleHits()
	return rs
}

// reset empties recycled records for a capture of e, keeping their
// storage.
func (rs *Records) reset(e *Engine) {
	*rs = Records{
		e:       e,
		actions: rs.actions[:0],
		threads: rs.threads[:0],
		stack:   rs.stack[:0],
		depth:   rs.depth[:0],
		chans:   rs.chans[:0],
		vars:    rs.vars[:0],
		infos:   rs.infos[:0],
		elems:   rs.elems[:0],
		tids:    rs.tids[:0],
		sets:    rs.sets[:0],
	}
}

// copyList copies the event list's actions enqueued since the previous
// capture, or all of them for a full capture: the retained filled
// cells are a contiguous seq range from head to the sentinel (trim only
// ever drops a prefix), and cells are never reused, so the previous
// capture's tail cell is where the new actions start unless a trim
// has dropped it. Run after copyVars, which sets rs.full.
func (e *Engine) copyList(rs *Records) {
	r := &e.ckpt
	e.list.mu.Lock()
	head := e.list.head
	e.list.mu.Unlock()
	tail := e.list.snapshotTail()
	rs.headSeq = head.seq
	from := head
	if last := r.listTail.Value(); !rs.full && last != nil && last.seq > head.seq {
		from = last
	}
	rs.listFrom = from.seq
	if from == head {
		rs.actions = slices.Grow(rs.actions, int(e.list.length.Load()))
	}
	for c := from; c != tail && c != nil && c.filled; c = c.next {
		rs.actions = append(rs.actions, rs.copyAction(c.action))
	}
	r.listTail = weak.Make(tail)
	rs.listLen = e.list.length.Load()
	rs.enqueued = e.list.enqueued.Load()
	rs.collected = e.list.collected.Load()
}

// copyVars copies the state of every listed variable, or notes that it
// no longer exists, and re-arms the dirty list for the next capture,
// reusing this capture's keys unless they outgrew the new cap.
func (e *Engine) copyVars(rs *Records) {
	r := &e.ckpt
	keys, full := e.listKeys()
	rs.full = full
	rs.vars = slices.Grow(rs.vars, len(keys))
	if full {
		// Sized for about two Infos, each with one lockset element, per
		// variable, as the service's traces have: growing a full
		// capture's records from empty cost more than encoding them.
		rs.infos = slices.Grow(rs.infos, 2*len(keys))
		rs.elems = slices.Grow(rs.elems, 2*len(keys))
	}
	// Quiescence is what lets the copy skip the variable locks: nothing
	// else reads or writes the states while it runs.
	for _, k := range keys {
		if k.vs.unlinked {
			rs.vars = append(rs.vars, varRec{v: k.v, flags: recGone})
			continue
		}
		rs.copyVar(k.v, k.vs)
		k.vs.ckptClean = true
	}

	// The cap follows the table's size: exact after a full listing,
	// an upper estimate otherwise.
	n := len(keys)
	if !full {
		n = int(e.varsTracked.Load() - e.varsFreed.Load())
	}
	r.dirtyMu.Lock()
	r.dirtyCap = 2*n + 1024
	if cap(keys) > 2*r.dirtyCap {
		keys = nil
	}
	r.dirty = keys[:0]
	r.tracking.Store(true)
	r.dirtyMu.Unlock()
}

// listKeys returns the variables to copy, in no particular order, and
// whether they are the whole table. While tracking, they are the dirty
// list's (a key repeats when its variable was dropped and created
// again); otherwise (a first capture, a restored engine, an overflowed
// list, a failed encode) every linked variable is listed.
func (e *Engine) listKeys() (keys []dirtyVar, full bool) {
	r := &e.ckpt
	r.dirtyMu.Lock()
	keys, tracking := r.dirty, r.tracking.Load()
	r.stopTrackingLocked()
	r.dirtyMu.Unlock()
	if tracking {
		return keys, false
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
	keys = make([]dirtyVar, 0, n)
	for i := range e.varShards {
		sh := &e.varShards[i]
		sh.mu.RLock()
		for obj, fields := range sh.vars {
			for field, vs := range fields {
				keys = append(keys, dirtyVar{event.Variable{Obj: obj, Field: field}, vs})
			}
		}
		sh.mu.RUnlock()
	}
	return keys, true
}

// copyVar copies one variable state of a quiescent engine.
func (rs *Records) copyVar(v event.Variable, vs *varState) {
	rec := varRec{v: v, info: int32(len(rs.infos))}
	if vs.write != nil {
		rec.flags |= recWrite
		rs.copyInfo(vs.write)
	}
	for _, in := range vs.reads {
		rs.copyInfo(in)
	}
	rec.n = int32(len(rs.infos)) - rec.info
	if vs.readsAllXact {
		rec.flags |= recReadsAllXact
	}
	if vs.disabled {
		rec.flags |= recDisabled
	}
	if vs.quarantined {
		rec.flags |= recQuarantined
	}
	rs.vars = append(rs.vars, rec)
}

// copyInfo copies one Info record.
func (rs *Records) copyInfo(in *info) {
	ir := infoRec{
		owner: in.owner, xact: in.xact, alock: in.alock,
		pos: in.pos.seq, orig: in.origSeq, action: rs.copyAction(in.action),
		elem: int32(len(rs.elems)), tid: int32(len(rs.tids)),
	}
	rs.elems = in.ls.appendElems(rs.elems)
	if len(in.hbAfter) > 0 {
		for t := range in.hbAfter {
			rs.tids = append(rs.tids, t)
		}
	}
	ir.nelem = int32(len(rs.elems)) - ir.elem
	ir.ntid = int32(len(rs.tids)) - ir.tid
	rs.infos = append(rs.infos, ir)
}

// sortVars sorts the variable records by key and drops repeated keys.
// Of a key's records within one capture at most one is not gone (a
// variable dropped and created again), and it is the one kept.
func (rs *Records) sortVars() {
	slices.SortFunc(rs.vars, func(a, b varRec) int {
		if c := compareVars(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.flags&recGone, b.flags&recGone)
	})
	rs.vars = slices.CompactFunc(rs.vars, func(a, b varRec) bool { return a.v == b.v })
}

// release returns the records' storage for another capture.
func (rs *Records) release() {
	rs.e = nil
	recordsPool.Put(rs)
}

// AppendTo is the writer step of a checkpoint: it appends the complete
// checkpoint of the captured state to dst, the header line, then the
// body line with its checksum, and returns the extended slice. It sorts
// the copied variables, encodes them, and copies every other variable's
// encoding from the previous encode's output. The bytes are those
// json.Marshal of a ckptPayload would write inside the frame, whatever
// was reused.
//
// The records are consumed: they must not be used after. out's storage
// passes to the engine, which reads it at its next encode; the caller
// may read out until then but must not modify it. spare is the storage
// of the previous encode, which the engine no longer needs, for the
// caller to reuse (nil if there is none to give). Encodes of one
// engine's captures must run in capture order; a capture encoded out
// of order is an error, and the engine's next capture lists every
// variable.
func (rs *Records) AppendTo(dst []byte) (out, spare []byte, err error) {
	e := rs.e
	r := &e.ckpt
	r.encMu.Lock()
	defer r.encMu.Unlock()
	defer rs.release()
	if !rs.full && (rs.base != r.encoded || !r.listFollows(rs)) {
		r.dirtyMu.Lock()
		r.stopTrackingLocked()
		r.dirtyMu.Unlock()
		return dst, nil, errCkptOrder
	}
	rs.sortVars()

	// Size the output once from the previous body plus what the list
	// and the table grew by since: growing by reallocation would leave
	// several body-sized garbage buffers per checkpoint.
	prev := r.bodyLen
	hint := prev + prev/32 + 1024 + 64*len(rs.actions) + 256*max(rs.nvars-r.nvars, 0)
	b := event.AppendHeader(slices.Grow(dst, hint), CheckpointFormatName, CheckpointFormatVersion)
	b, body := event.OpenRecord(b, "engine")
	var m marshaler
	b = m.append(append(b, `{"opts":`...), &rs.opts)
	b, listStart, listEnds := rs.appendList(b)
	if len(rs.threads) > 0 {
		slices.SortFunc(rs.threads, func(a, b ckptThread) int { return cmp.Compare(a.Tid, b.Tid) })
		b = m.append(append(b, `,"threads":`...), rs.threads)
	}
	if len(rs.chans) > 0 {
		slices.SortFunc(rs.chans, func(a, b ckptChan) int { return cmp.Compare(a.Obj, b.Obj) })
		b = m.append(append(b, `,"chans":`...), rs.chans)
	}
	b, cur := rs.appendVars(b)
	b = m.append(append(b, `,"counters":`...), &rs.counters)
	if rs.fires != ([obs.NumRules + 1]uint64{}) || rs.hits != ([obs.NumRules + 1]uint64{}) {
		b = appendUints(append(b, `,"rule_fires":`...), rs.fires[:])
		b = appendUints(append(b, `,"walk_rule_hits":`...), rs.hits[:])
	}
	b = append(b, '}')
	if m.err != nil {
		r.dirtyMu.Lock()
		r.stopTrackingLocked()
		r.dirtyMu.Unlock()
		return dst, nil, m.err
	}
	r.bodyLen, r.nvars = len(b)-body, rs.nvars
	r.listSeq, r.listStart = rs.headSeq, listStart
	r.listEnds, r.listSpare = listEnds, r.listEnds[:0]
	b = event.CloseRecord(b, body)

	spare, r.buf = r.buf[:0:cap(r.buf)], b
	r.vars, r.spare = cur, r.vars[:0]
	r.encoded = rs.seq
	return b, spare, nil
}

// marshaler appends json.Marshal(v): the fixed-shape parts of the
// payload are small, so reflection costs little there. It keeps the
// first error.
type marshaler struct{ err error }

func (m *marshaler) append(b []byte, v any) []byte {
	raw, err := json.Marshal(v)
	if m.err == nil {
		m.err = err
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

// listFollows reports whether the previous encode holds the list cells
// rs does not carry: those from rs's head up to where its actions
// start, which must be the previous encode's tail.
func (r *ckptReuse) listFollows(rs *Records) bool {
	return rs.listFrom == rs.headSeq ||
		r.listSeq <= rs.headSeq && rs.listFrom == r.listSeq+uint64(len(r.listEnds))
}

// appendList encodes the event list: the previous encode's cells from
// head_seq on, copied, then the copied actions. It returns where the
// first cell starts and where each ends, for the next encode.
func (rs *Records) appendList(b []byte) ([]byte, int, []int) {
	r := &rs.e.ckpt
	b = append(b, `,"list":{"head_seq":`...)
	b = strconv.AppendUint(b, rs.headSeq, 10)
	b = append(b, `,"actions":`...)
	var keepFrom, keepTo int // the previous cells kept, as listEnds indices
	if !rs.full && rs.listFrom > rs.headSeq {
		keepFrom, keepTo = int(rs.headSeq-r.listSeq), int(rs.listFrom-r.listSeq)
	}
	ends := r.listSpare[:0]
	start := 0
	switch {
	case keepTo > keepFrom || len(rs.actions) > 0:
		b = append(b, '[')
		start = len(b)
		if keepTo > keepFrom {
			from := r.listStart
			if keepFrom > 0 {
				from = r.listEnds[keepFrom-1] + 1 // past the comma
			}
			b = append(b, r.buf[from:r.listEnds[keepTo-1]]...)
			for _, end := range r.listEnds[keepFrom:keepTo] {
				ends = append(ends, end-from+start)
			}
		}
		for _, a := range rs.actions {
			if len(ends) > 0 {
				b = append(b, ',')
			}
			b = event.AppendJSON(b, rs.action(a))
			ends = append(ends, len(b))
		}
		b = append(b, ']')
	case rs.listLen > 0:
		b = append(b, "[]"...)
	default:
		b = append(b, "null"...)
	}
	b = append(b, `,"enqueued":`...)
	b = strconv.AppendUint(b, rs.enqueued, 10)
	b = append(b, `,"collected":`...)
	b = strconv.AppendUint(b, rs.collected, 10)
	return append(b, '}'), start, ends
}

// appendVars encodes the variable table, sorted by (obj, field), and
// returns the span of every entry. One merge loop walks the sorted
// records and the previous encode's spans: a record is encoded, or
// left out if its variable no longer exists, and a span without a
// record is copied from the previous output. A full capture has no
// spans to merge.
func (rs *Records) appendVars(b []byte) ([]byte, []ckptSpan) {
	r := &rs.e.ckpt
	var prev []ckptSpan
	if !rs.full {
		prev = r.vars
	}
	from := r.buf
	cur := slices.Grow(r.spare[:0], max(len(prev), len(rs.vars)))
	for i, j := 0, 0; i < len(rs.vars) || j < len(prev); {
		c := -1 // rs.vars[i] against prev[j]: <0 the record comes first, >0 the span, 0 both
		if j < len(prev) {
			c = 1
			if i < len(rs.vars) {
				c = compareVars(rs.vars[i].v, prev[j].v)
			}
		}
		if c > 0 {
			p := prev[j]
			j++
			b = appendVarsSep(b, len(cur))
			off := len(b)
			b = append(b, from[p.off:p.end]...)
			cur = append(cur, ckptSpan{v: p.v, off: off, end: len(b)})
			continue
		}
		rec := rs.vars[i]
		i++
		if c == 0 {
			j++ // listed, so the previous span is stale
		}
		if rec.flags&recGone != 0 {
			continue // dropped since the previous capture
		}
		b = appendVarsSep(b, len(cur))
		off := len(b)
		b = rs.appendVar(b, rec)
		cur = append(cur, ckptSpan{v: rec.v, off: off, end: len(b)})
	}
	if len(cur) > 0 {
		b = append(b, ']')
	}
	return b, cur
}

// appendVarsSep opens the vars array before its first entry and
// separates the others.
func appendVarsSep(b []byte, n int) []byte {
	if n == 0 {
		return append(b, `,"vars":[`...)
	}
	return append(b, ',')
}

// appendVar encodes one variable record as a ckptVar.
func (rs *Records) appendVar(b []byte, rec varRec) []byte {
	b = append(b, `{"o":`...)
	b = strconv.AppendInt(b, int64(rec.v.Obj), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(rec.v.Field), 10)
	infos := rs.infos[rec.info : rec.info+rec.n]
	if rec.flags&recWrite != 0 {
		b = rs.appendInfo(append(b, `,"w":`...), &infos[0])
		infos = infos[1:]
	}
	if len(infos) > 0 {
		slices.SortFunc(infos, func(a, b infoRec) int { return cmp.Compare(a.owner, b.owner) })
		b = append(b, `,"r":[`...)
		for i := range infos {
			if i > 0 {
				b = append(b, ',')
			}
			b = rs.appendInfo(b, &infos[i])
		}
		b = append(b, ']')
	}
	if rec.flags&recReadsAllXact != 0 {
		b = append(b, `,"rx":true`...)
	}
	if rec.flags&recDisabled != 0 {
		b = append(b, `,"disabled":true`...)
	}
	if rec.flags&recQuarantined != 0 {
		b = append(b, `,"quarantined":true`...)
	}
	return append(b, '}')
}

// appendInfo encodes one Info record as a ckptInfo.
func (rs *Records) appendInfo(b []byte, in *infoRec) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(in.owner), 10)
	b = append(b, `,"pos":`...)
	b = strconv.AppendUint(b, in.pos, 10)
	b = append(b, `,"orig":`...)
	b = strconv.AppendUint(b, in.orig, 10)
	if in.alock != event.NilAddr {
		b = append(b, `,"alock":`...)
		b = strconv.AppendInt(b, int64(in.alock), 10)
	}
	if in.xact {
		b = append(b, `,"xact":true`...)
	}
	b = event.AppendJSON(append(b, `,"a":`...), rs.action(in.action))

	// "ls" has no omitempty: the format writes an empty set as null.
	b = append(b, `,"ls":`...)
	elems := rs.elems[in.elem : in.elem+in.nelem]
	if len(elems) == 0 {
		b = append(b, "null"...)
	} else {
		slices.SortFunc(elems, compareElems)
		for i, el := range elems {
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

	tids := rs.tids[in.tid : in.tid+in.ntid]
	if len(tids) > 0 {
		slices.Sort(tids)
		for i, t := range tids {
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
// Checkpoint. The snapshot carries the engine's configuration; a
// restored engine has no fault injector. The checkpointed rule counts
// are added into the restored engine's own.
// A corrupt snapshot (torn write, checksum mismatch, unknown version)
// is an error — never a silently wrong detector.
//
// RestoreEngine consumes exactly the checkpoint's two lines and nothing
// past them: callers that pass a *bufio.Reader can keep reading their
// own trailing records from the same stream (composed snapshots rely on
// this — e.g. a serializability checker appending its graph state after
// the engine snapshot).
func RestoreEngine(r io.Reader) (*Engine, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	line, err := event.ReadLine(br)
	if err != nil {
		return nil, fmt.Errorf("core: empty checkpoint")
	}
	if err := event.CheckHeader(line, CheckpointFormatName, CheckpointFormatVersion, CheckpointFormatVersion); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	line, err = event.ReadLine(br)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint body missing (torn write?)")
	}
	body, err := event.ReadRecord(line, "engine")
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint body: %w", err)
	}
	var p ckptPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return restore(&p)
}

func restore(p *ckptPayload) (*Engine, error) {
	co := p.Opts
	opts := Options{
		SC1: co.SC1, SC2: co.SC2, SC3: co.SC3, XactSC: co.XactSC,
		DisableAfterRace: co.DisableAfterRace,
		GCThreshold:      co.GCThreshold, GCTrimFraction: co.GCTrimFraction,
		PartialEager: co.PartialEager, TxnSemantics: co.TxnSemantics,
		OnError: resilience.ErrorPolicy(co.OnError), MemoryBudget: co.MemoryBudget,
		BrokenRule: co.BrokenRule,
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

	// Rule counters: rule 1 is striped like the hot-path sums, the
	// other fires are the list's.
	for i := 1; i <= obs.NumRules && i < len(p.RuleFires); i++ {
		if i == obs.RuleAccess {
			st.resets.Add(p.RuleFires[i])
		} else {
			e.list.fires[i].Add(p.RuleFires[i])
		}
	}
	for i := 1; i <= obs.NumRules && i < len(p.WalkRuleHits); i++ {
		st.walkHits[i].Add(p.WalkRuleHits[i])
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
