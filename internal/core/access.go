package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// walkObserver, when non-nil, is invoked by walkUntil for every rule
// application that grew the lockset: the cell that fired, the rule
// number, and the lockset after the application. It feeds the lockset
// trace hook, so it is nil unless the variable is traced.
type walkObserver func(c *cell, rule int, after *Lockset)

// Read checks a plain (non-transactional) read of (o, d) by thread t and
// records it. It returns the race the read causes, or nil.
func (e *Engine) Read(t event.Tid, o event.Addr, d event.FieldID) *detect.Race {
	a := event.Read(t, o, d)
	return e.access(t, o, d, a, false, nil)
}

// Write checks a plain (non-transactional) write of (o, d) by thread t
// and records it. It returns the race the write causes, or nil.
func (e *Engine) Write(t event.Tid, o event.Addr, d event.FieldID) *detect.Race {
	a := event.Write(t, o, d)
	return e.access(t, o, d, a, true, nil)
}

// Commit records a transaction commit with read set reads and write set
// writes: the commit action enters the synchronization event list, and
// every variable in the sets is then checked as a transactional access
// (lines 24–28 of Figure 8). It returns the races found, one per racy
// variable: the written variables in write-set order, then the variables
// only read in read-set order.
//
// Section 5.3 prices a commit at one list slot plus |R ∪ W| checks, and
// the per-commit work here is linear in |R ∪ W| apart from one sort: the
// sets are deduplicated by sorting reused working storage, not through
// maps, and rule 9's lockset and the committer's held lock are computed
// once and shared by every access.
func (e *Engine) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	a := event.Commit(t, reads, writes)
	e.Sync(a)

	bufs := commitBufPool.Get().(*commitBufs)
	defer commitBufPool.Put(bufs)
	vars, nw := bufs.dedupe(reads, writes)

	// The lockset of a variable just after a transactional access is
	// {t, TL} plus the outgoing-edge witnesses of the configured
	// transaction semantics (rule 9: {t, TL} ∪ R ∪ W under the paper's
	// shared-variable interpretation); starting each Info's lazy lockset
	// there lets later traversals pick up commit-to-commit
	// synchronizes-with edges.
	var witnesses []event.Variable
	switch e.opts.TxnSemantics {
	case event.TxnAtomicOrder:
		// TL itself is the witness.
	case event.TxnWriteToRead:
		witnesses = vars[:nw]
	default:
		witnesses = vars
	}
	tx := &txnAccess{base: txnLockset(t, witnesses), alock: e.heldLock(t)}

	var races []detect.Race
	for i, v := range vars {
		if r := e.access(t, v.Obj, v.Field, a, i < nw, tx); r != nil {
			races = append(races, *r)
		}
	}
	return races
}

// txnAccess is what the accesses of one commit share: rule 9's lockset,
// cloned into each access's Info, and the lock the committer holds.
type txnAccess struct {
	base  *Lockset
	alock event.Addr
}

// commitBufs is one commit's working storage, reused across commits
// through commitBufPool.
type commitBufs struct {
	sorted []txnVar
	keep   []bool
	vars   []event.Variable
}

// txnVar is a variable of a commit's sets with its position in writes
// followed by reads.
type txnVar struct {
	v   event.Variable
	pos int
}

var commitBufPool = sync.Pool{New: func() any { return new(commitBufs) }}

// dedupe returns the distinct variables of a commit's sets: the
// written ones in write-set order, then those only read in read-set
// order, and how many were written. The result is reused storage,
// valid until the next dedupe.
func (b *commitBufs) dedupe(reads, writes []event.Variable) (vars []event.Variable, nw int) {
	n := len(writes) + len(reads)
	b.sorted = b.sorted[:0]
	for i, v := range writes {
		b.sorted = append(b.sorted, txnVar{v, i})
	}
	for i, v := range reads {
		b.sorted = append(b.sorted, txnVar{v, len(writes) + i})
	}
	slices.SortFunc(b.sorted, func(x, y txnVar) int {
		if c := compareVars(x.v, y.v); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	// keep marks each variable's first position in writes ++ reads.
	b.keep = slices.Grow(b.keep[:0], n)[:n]
	for i, x := range b.sorted {
		b.keep[x.pos] = i == 0 || x.v != b.sorted[i-1].v
	}
	b.vars = b.vars[:0]
	for i, v := range writes {
		if b.keep[i] {
			b.vars = append(b.vars, v)
		}
	}
	nw = len(b.vars)
	for i, v := range reads {
		if b.keep[len(writes)+i] {
			b.vars = append(b.vars, v)
		}
	}
	return b.vars, nw
}

// access is the common entry point for all data accesses: it performs
// the happens-before checks required by the read/write distinction and
// installs the resulting Info record. tx is the commit a transactional
// access belongs to; nil means a plain access, whose lockset {t} is
// built in place (recycling the superseded record's storage when
// possible).
//
// The whole check runs behind a recover barrier: under the Quarantine
// policy a panicking check (a detector bug, or an injected fault)
// quarantines the variable — its state is dropped, it is never checked
// again — and the access proceeds race-free from the monitored
// program's point of view. Under Abort the panic propagates unchanged.
func (e *Engine) access(t event.Tid, o event.Addr, d event.FieldID, a event.Action, isWrite bool, tx *txnAccess) (race *detect.Race) {
	xact := tx != nil
	h := varHash(o, d)
	st := &e.stats[h&shardIndex]
	vs := e.stateOfHash(o, d, h)
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.disabled || vs.quarantined {
		return nil
	}
	e.markDirty(o, d, vs)
	st.accessesChecked.Add(1)
	v := event.Variable{Obj: o, Field: d}

	// A plain access fires rule 1 (a transactional one is covered by the
	// commit's rule 9 fire). A traced variable's walks also feed the
	// lockset trace hook.
	if !xact {
		st.resets.Add(1)
	}
	var onFire walkObserver
	var vname string
	traced := false
	if e.trace.Enabled() {
		vname = v.String()
		if traced = e.trace.Match(vname); traced {
			onFire = func(c *cell, rule int, after *Lockset) {
				e.trace.Record(obs.LocksetTransition{
					Seq: c.seq, Var: vname, Rule: rule,
					Action: c.action.String(), Lockset: after.String(),
				})
			}
		}
	}

	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e.opts.OnError == resilience.Abort {
			panic(r)
		}
		// Quarantine (o, d): drop the variable's state and stop checking
		// it. (An uninstalled Info owns no list reference, so there is
		// nothing to unpin.)
		e.dropVar(o, d, vs)
		vs.quarantined = true
		e.panicsRecovered.Add(1)
		e.varsQuarantined.Add(1)
		race = nil
	}()
	if e.opts.Injector.ShouldPanic(v) {
		panic(fmt.Sprintf("resilience: injected detector fault on %v", v))
	}

	pos := e.list.snapshotTail()
	var racePrev *info // the Info the failed check was against
	// Every access is checked against the last write.
	if !e.checkHB(vs.write, t, xact, pos, st, onFire) {
		race = &detect.Race{Var: v, Access: a, Prev: vs.write.action, HasPrev: true}
		racePrev = vs.write
	}
	// A write is additionally checked against every read since that
	// write. When the writer and every reader are transactional, the
	// commit/commit exemption applies to the entire reader set at once.
	if race == nil && isWrite && len(vs.reads) > 0 {
		if xact && vs.readsAllXact && e.opts.XactSC && e.opts.TxnSemantics != event.TxnWriteToRead {
			st.pairChecks.Add(uint64(len(vs.reads)))
			st.xactHits.Add(uint64(len(vs.reads)))
		} else if len(vs.reads) == 1 {
			// Single reader: trivially deterministic, no sort needed.
			for u, prev := range vs.reads {
				if u != t && !e.checkHB(prev, t, xact, pos, st, onFire) {
					race = &detect.Race{Var: v, Access: a, Prev: prev.action, HasPrev: true}
					racePrev = prev
				}
			}
		} else {
			// Deterministic reader order: a racy reader ends the loop
			// early, so map-order iteration would make the short-circuit
			// counters (and the reported previous access) vary between
			// replays of the same linearization.
			tids := make([]event.Tid, 0, len(vs.reads))
			for u := range vs.reads {
				if u != t {
					tids = append(tids, u)
				}
			}
			slices.Sort(tids)
			for _, u := range tids {
				prev := vs.reads[u]
				if !e.checkHB(prev, t, xact, pos, st, onFire) {
					race = &detect.Race{Var: v, Access: a, Prev: prev.action, HasPrev: true}
					racePrev = prev
					break
				}
			}
		}
	}

	// Race provenance is reconstructed before the install phase recycles
	// racePrev's record in place. A cold path: a race ends checking for
	// the variable (under DisableAfterRace) and is rare regardless.
	if race != nil {
		race.Prov = e.buildProvenance(v, racePrev, t, pos)
	}

	// Install the record: a write supersedes the previous write and all
	// reads; a read supersedes this thread's previous read. The
	// superseded record of the same slot is recycled in place — it is
	// exclusively owned once replaced — including its list reference
	// when the position is unchanged, so between synchronization events
	// the install phase allocates nothing and touches no shared atomics.
	if isWrite {
		vs.write = e.installInfo(vs.write, pos, t, a, tx)
		for _, prev := range vs.reads {
			prev.release()
		}
		clear(vs.reads)
		vs.readsAllXact = true
	} else {
		if vs.reads == nil {
			vs.reads = make(map[event.Tid]*info)
			vs.readsAllXact = true
		}
		vs.reads[t] = e.installInfo(vs.reads[t], pos, t, a, tx)
		vs.readsAllXact = vs.readsAllXact && xact
	}
	if traced {
		// The access itself is a transition too: rule 1 (or 9 inside a
		// transaction) reset the lockset to the just-installed one.
		in := vs.write
		if !isWrite {
			in = vs.reads[t]
		}
		rule := obs.RuleAccess
		if xact {
			rule = obs.RuleCommit
		}
		e.trace.Record(obs.LocksetTransition{
			Seq: pos.seq, Var: vname, Rule: rule,
			Action: a.String(), Lockset: in.ls.String(),
		})
	}

	if race != nil {
		st.races.Add(1)
		if e.opts.DisableAfterRace {
			vs.disabled = true
		}
	}
	return race
}

// installInfo builds the Info record for the access just checked,
// recycling the superseded record old (nil if the slot was empty). The
// returned record owns a list reference on pos: stolen from old when
// the position is unchanged, freshly acquired otherwise. A
// transactional access (tx non-nil) takes a clone of its commit's
// lockset, written into the superseded lockset's header. A plain one
// has the lockset {t} built in place, reusing old's lockset storage
// unless a clone still shares it.
func (e *Engine) installInfo(old *info, pos *cell, t event.Tid, a event.Action, tx *txnAccess) *info {
	in := old
	if in == nil {
		in = &info{}
		pos.refs.Add(1)
	} else if in.pos != pos {
		pos.refs.Add(1)
		in.release()
	}
	if tx != nil {
		if in.ls == nil {
			in.ls = new(Lockset)
		}
		tx.base.cloneInto(in.ls)
		in.alock = tx.alock
	} else {
		if in.ls != nil && !in.ls.shared {
			in.ls.Reset(ThreadElem(t))
		} else {
			in.ls = NewLockset(ThreadElem(t))
		}
		in.alock = e.heldLock(t)
	}
	in.pos = pos
	in.owner = t
	in.xact = tx != nil
	in.action = a
	in.origSeq = pos.seq
	in.hbAfter = nil
	return in
}

// checkHB implements Check-Happens-Before of Figure 8: it decides
// whether the access described by prev happens-before the current access
// by thread t (whose Info position is end), trying the cheap sufficient
// checks first and falling back to lockset computation over the
// synchronization event list.
func (e *Engine) checkHB(prev *info, t event.Tid, xact bool, end *cell, st *statStripe, onFire walkObserver) bool {
	if prev == nil {
		return true // fresh variable: empty lockset
	}
	st.pairChecks.Add(1)

	// Transactions short-circuit: two transactional accesses never race
	// (the extended-race definition exempts commit/commit pairs).
	// Under the write-to-read semantics the exemption does not exist.
	if e.opts.XactSC && prev.xact && xact && e.opts.TxnSemantics != event.TxnWriteToRead {
		st.xactHits.Add(1)
		return true
	}
	// SC1: same thread — ordered by program order.
	if e.opts.SC1 && prev.owner == t {
		st.sc1Hits.Add(1)
		return true
	}
	// Transitivity cache: an edge to t established once holds for every
	// later access by t (happens-before composes with program order).
	if prev.hbAfter != nil {
		if _, ok := prev.hbAfter[t]; ok {
			st.hbCacheHits.Add(1)
			return true
		}
	}
	// SC2: the previous accessor held prev.alock at its access, and the
	// current thread holds the same lock now; mutual exclusion implies
	// the release/acquire pair ordering the two accesses. holds reads
	// t's published lock snapshot without any shared lock.
	if e.opts.SC2 && prev.alock != event.NilAddr && e.holds(t, prev.alock) {
		st.sc2Hits.Add(1)
		prev.cacheHB(t)
		return true
	}
	// Rung 3 of the degradation ladder: the event list is frozen, so a
	// lockset walk would be built on stale data. Short-circuit-only mode
	// assumes inconclusive pairs are ordered — races that needed a walk
	// are missed, counted in DegradedChecks, and the program keeps
	// running in bounded memory.
	if e.degraded.Load() {
		st.degradedChecks.Add(1)
		return true
	}
	acceptTL := xact && e.opts.TxnSemantics != event.TxnWriteToRead
	// SC3: traverse only the events of the two involved threads. The
	// rules are monotone, so ownership established on the subsequence
	// also holds on the full sequence; failure is inconclusive. Long
	// segments skip SC3: a successful filtered walk is never memoized
	// (its lockset is a subset), so repeating it over a long stale
	// segment costs more than one full walk that advances the Info.
	walked := 0 // cells visited across this check's traversals, for walkDepth
	if e.opts.SC3 && end.seq-prev.pos.seq <= sc3MaxSegment {
		ls := prev.ls.Clone()
		found, viaTL, _, n := walkUntil(ls, prev.pos, end, e.rules(), true, prev.owner, t, acceptTL, &st.walkHits, onFire)
		st.walkCells.Add(uint64(n))
		if found {
			st.sc3Hits.Add(1)
			e.walkDepth.Observe(uint64(n))
			if !viaTL {
				prev.cacheHB(t)
			}
			return true
		}
		walked = n
	}
	// Full lockset computation (Apply-Lockset-Rules), lazily evaluating
	// the lockset of the variable at the current access. Locksets only
	// grow along the walk, so the traversal stops as soon as the
	// verdict is decided; only a walk that reaches the end computes the
	// complete lockset, and it is memoized.
	st.fullWalks.Add(1)
	ls := prev.ls.Clone()
	found, viaTL, stopped, n := walkUntil(ls, prev.pos, end, e.rules(), false, prev.owner, t, acceptTL, &st.walkHits, onFire)
	st.walkCells.Add(uint64(n))
	e.walkDepth.Observe(uint64(walked + n))
	if stopped == end {
		// The computed lockset is the variable's lockset at position
		// end; remember it so the next check resumes from here.
		prev.pos.refs.Add(-1)
		end.refs.Add(1)
		prev.pos = end
		prev.ls = ls
	}
	if found && !viaTL {
		prev.cacheHB(t)
	}
	return found
}

// ruleSet configures the lockset update rules a walk applies: the
// transaction semantics and — conformance mutation testing only — a
// rule to drop (Options.BrokenRule).
type ruleSet struct {
	sem  event.TxnSemantics
	drop int
}

// rules returns the engine's rule configuration.
func (e *Engine) rules() ruleSet {
	return ruleSet{sem: e.opts.TxnSemantics, drop: e.opts.BrokenRule}
}

// walkUntil applies the lockset update rules from cell from toward end,
// stopping early once the target verdict is decided: the accessing
// thread t entered the lockset, or (when acceptTL is set) TL did. It
// returns whether the verdict is positive, whether it was via TL, the
// cell the walk stopped at (== end iff it ran to completion), and the
// number of cells visited. Every rule application that grew the
// lockset is counted in hits and, when onFire is non-nil, observed.
func walkUntil(ls *Lockset, from, end *cell, rs ruleSet, filtered bool, t1, t2 event.Tid, acceptTL bool, hits *[obs.NumRules + 1]atomic.Uint64, onFire walkObserver) (found, viaTL bool, stopped *cell, n int) {
	target := ThreadElem(t2)
	check := func() (bool, bool) {
		if ls.Has(target) {
			return true, false
		}
		if acceptTL && ls.Has(TL) {
			return true, true
		}
		return false, false
	}
	if ok, tl := check(); ok {
		return true, tl, from, 0
	}
	c := from
	for ; c != end && c != nil && c.filled; c = c.next {
		n++
		before := ls.Len()
		applyRuleCell(ls, c.action, rs, filtered, t1, t2)
		if ls.Len() != before {
			rule := obs.RuleOf(c.action.Kind)
			hits[rule].Add(1)
			if onFire != nil {
				onFire(c, rule, ls)
			}
			if ok, tl := check(); ok {
				return true, tl, c.next, n
			}
		}
	}
	return false, false, c, n
}

// cacheHB records that in's access happens-before everything thread t
// does from now on.
func (in *info) cacheHB(t event.Tid) {
	if in.hbAfter == nil {
		in.hbAfter = make(map[event.Tid]struct{}, 4)
	}
	in.hbAfter[t] = struct{}{}
}

// applyRules applies the Goldilocks lockset update rules (Figure 5,
// rules 2–7 and 9) to ls for every filled cell in [from, end). When
// filtered is set, only events performed by t1 or t2 are considered.
// It returns the number of cells visited.
func applyRules(ls *Lockset, from, end *cell, rs ruleSet, filtered bool, t1, t2 event.Tid) int {
	n := 0
	for c := from; c != end && c != nil && c.filled; c = c.next {
		n++
		applyRuleCell(ls, c.action, rs, filtered, t1, t2)
	}
	return n
}

// applyRuleCell applies the update rules for one synchronization action.
func applyRuleCell(ls *Lockset, a event.Action, rs ruleSet, filtered bool, t1, t2 event.Tid) {
	sem := rs.sem
	{
		if filtered && a.Thread != t1 && a.Thread != t2 {
			return
		}
		if rs.drop != 0 && rs.drop == obs.RuleOf(a.Kind) {
			return // Options.BrokenRule: the injected mutation
		}
		u := ThreadElem(a.Thread)
		switch a.Kind {
		case event.KindAcquire:
			if ls.Has(LockElem(a.Obj)) {
				ls.Add(u)
			}
		case event.KindRelease:
			if ls.Has(u) {
				ls.Add(LockElem(a.Obj))
			}
		case event.KindVolatileRead:
			if ls.Has(VolatileElem(a.Volatile())) {
				ls.Add(u)
			}
		case event.KindVolatileWrite:
			if ls.Has(u) {
				ls.Add(VolatileElem(a.Volatile()))
			}
		case event.KindFork:
			if ls.Has(u) {
				ls.Add(ThreadElem(a.Peer))
			}
		case event.KindJoin:
			if ls.Has(ThreadElem(a.Peer)) {
				ls.Add(u)
			}
		case event.KindChanSend:
			// Rule 10: the send acquires the slot's prior recv edge before
			// releasing the message — acquire-then-release, in that order,
			// so a send does not synchronize with itself through the slot.
			ce := VolatileElem(a.Volatile())
			if ls.Has(ce) {
				ls.Add(u)
			}
			if ls.Has(u) {
				ls.Add(ce)
			}
		case event.KindChanRecv:
			// Rule 11: the dual of rule 10 on the same conveyor slot. A
			// drain recv (normalized to the closed element) only acquires:
			// it carries no message for a later send to synchronize with.
			ce := VolatileElem(a.Volatile())
			if ls.Has(ce) {
				ls.Add(u)
			}
			if a.Field != event.ChanClosedField && ls.Has(u) {
				ls.Add(ce)
			}
		case event.KindChanClose:
			// Rule 12: close broadcasts a release onto the closed element;
			// only drain recvs acquire from it.
			if ls.Has(u) {
				ls.Add(VolatileElem(a.Volatile()))
			}
		case event.KindCommit:
			// Each semantics acquires (adds u when a witness is in the
			// set) and then releases (adds its witnesses when u is). A
			// set already holding u skips the acquire's probes.
			switch sem {
			case event.TxnAtomicOrder:
				if ls.Has(u) || ls.Has(TL) {
					ls.Add(u)
					ls.Add(TL)
				}
			case event.TxnWriteToRead:
				if ls.Has(u) || ls.IntersectsVars(a.Reads) {
					ls.Add(u)
					ls.AddVars(a.Writes)
				}
			default:
				if ls.Has(u) || ls.IntersectsVars(a.Reads) || ls.IntersectsVars(a.Writes) {
					ls.Add(u)
					ls.AddVars(a.Reads)
					ls.AddVars(a.Writes)
				}
			}
		}
	}
}
