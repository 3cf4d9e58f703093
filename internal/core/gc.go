package core

import (
	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
)

// Collect garbage-collects the synchronization event list (Section 5.4).
//
// Cells whose reference count is zero and that precede every Info
// position can be dropped immediately. An Info stuck near the head of
// the list (a variable accessed early and never again) would otherwise
// pin the entire list; partially-eager lockset evaluation advances such
// Infos — applying the update rules up to an advance point roughly
// GCTrimFraction into the list and moving their positions there — after
// which the prefix is unreferenced and freed.
//
// Collect is triggered automatically when the list exceeds
// Options.GCThreshold, and may be called explicitly.
func (e *Engine) Collect() {
	e.gcMu.Lock()
	defer e.gcMu.Unlock()
	e.collectLocked(e.opts.GCTrimFraction)
}

// collectLocked is Collect's body; the caller holds gcMu. frac is the
// fraction of the list the partially-eager advance targets.
func (e *Engine) collectLocked(frac float64) {
	e.collections.Add(1)
	if e.opts.PartialEager {
		n := int(float64(e.list.len()) * frac)
		if n < 1 {
			n = 1
		}
		if limit := e.list.cellAt(n); limit != nil {
			e.advanceInfosBefore(limit)
		}
	}
	e.list.trim(nil)
}

// aggressiveTrimFraction is the rung-1 partially-eager advance target:
// half the list, regardless of the configured GCTrimFraction.
const aggressiveTrimFraction = 0.5

// govern enforces Options.MemoryBudget: called after an enqueue that
// left the list over budget, it climbs the degradation ladder
// (resilience.DegradationRung) until the list fits or the engine is
// degraded to short-circuit-only checking. The ladder is a one-way
// ratchet: precision lost to pressure is not re-bought when pressure
// subsides, keeping the engine's behaviour explainable after the fact
// (the -stats rung says how far it fell).
func (e *Engine) govern() {
	e.gcMu.Lock()
	defer e.gcMu.Unlock()
	over := func() bool {
		return e.list.len()+e.opts.Injector.Pressure() > e.opts.MemoryBudget
	}
	for over() {
		switch resilience.DegradationRung(e.rung.Load()) {
		case resilience.RungNormal:
			e.escalateLocked(resilience.RungAggressiveGC)
		case resilience.RungAggressiveGC:
			e.aggressiveGCs.Add(1)
			e.collectLocked(aggressiveTrimFraction)
			if over() {
				e.escalateLocked(resilience.RungShedCaches)
			}
		case resilience.RungShedCaches:
			e.shedCaches()
			e.eagerSweepLocked()
			if over() {
				e.escalateLocked(resilience.RungDegraded)
			}
		case resilience.RungDegraded:
			// Freeze the list and flush what remains; from here on Sync
			// appends nothing and checkHB answers from short-circuits
			// alone.
			e.degraded.Store(true)
			e.eagerSweepLocked()
			return
		}
	}
}

func (e *Engine) escalateLocked(to resilience.DegradationRung) {
	e.rung.Store(int32(to))
	e.escalations.Add(1)
}

// shedCaches drops every memoized happens-before transitivity cache.
// The caches are pure accelerators — rebuilding them costs repeat pair
// checks, never precision.
func (e *Engine) shedCaches() {
	e.cacheSheds.Add(1)
	e.forEachVarState(func(o event.Addr, d event.FieldID, vs *varState) {
		vs.mu.Lock()
		if vs.write != nil {
			vs.write.hbAfter = nil
		}
		for _, in := range vs.reads {
			in.hbAfter = nil
		}
		e.markDirty(o, d, vs)
		vs.mu.Unlock()
	})
}

// eagerSweepLocked advances every Info to the current list tail — a
// fully-eager evaluation pass, the opposite end of the lazy/eager
// spectrum from normal operation — so the entire retained prefix
// becomes unreferenced and is trimmed. Precision is preserved (the
// advance applies the same update rules a lazy walk would); the cost is
// O(vars × retained list) per sweep, paid only under memory pressure.
func (e *Engine) eagerSweepLocked() {
	e.eagerSweeps.Add(1)
	tail := e.list.snapshotTail()
	e.forEachVarState(func(o event.Addr, d event.FieldID, vs *varState) { e.advanceVar(o, d, vs, tail) })
	e.list.trim(nil)
}

// forEachVarState applies f to every tracked variable state, one shard
// at a time: each shard's states are snapshotted under that shard's
// read lock and processed after it is released, so a sweep never holds
// more than one shard lock and never blocks accesses to the other 63
// shards.
func (e *Engine) forEachVarState(f func(o event.Addr, d event.FieldID, vs *varState)) {
	type keyed struct {
		v  event.Variable
		vs *varState
	}
	var states []keyed
	for i := range e.varShards {
		sh := &e.varShards[i]
		sh.mu.RLock()
		states = states[:0]
		for o, fields := range sh.vars {
			for d, vs := range fields {
				states = append(states, keyed{event.Variable{Obj: o, Field: d}, vs})
			}
		}
		sh.mu.RUnlock()
		for _, s := range states {
			f(s.v.Obj, s.v.Field, s.vs)
		}
	}
}

// advanceInfosBefore applies partially-eager evaluation: every Info
// positioned before limit has its lockset brought forward to limit.
func (e *Engine) advanceInfosBefore(limit *cell) {
	e.forEachVarState(func(o event.Addr, d event.FieldID, vs *varState) { e.advanceVar(o, d, vs, limit) })
}

// advanceVar brings every Info of variable (o, d) positioned before
// limit forward to limit. A state with nothing to advance keeps its
// checkpoint encoding.
func (e *Engine) advanceVar(o event.Addr, d event.FieldID, vs *varState, limit *cell) {
	vs.mu.Lock()
	moved := e.advanceInfo(vs.write, limit)
	for _, in := range vs.reads {
		moved = e.advanceInfo(in, limit) || moved
	}
	if moved {
		e.markDirty(o, d, vs)
	}
	vs.mu.Unlock()
}

// advanceInfo advances in to limit, reporting whether it moved.
func (e *Engine) advanceInfo(in *info, limit *cell) bool {
	if in == nil || in.pos.seq >= limit.seq {
		return false
	}
	n := applyRules(in.ls, in.pos, limit, e.rules(), false, 0, 0)
	e.stats[0].walkCells.Add(uint64(n)) // collection walks land on stripe 0
	in.pos.refs.Add(-1)
	limit.refs.Add(1)
	in.pos = limit
	e.infosAdvanced.Add(1)
	return true
}

// HeldLocks returns the monitors thread t currently holds, for tests and
// debugging.
func (e *Engine) HeldLocks(t event.Tid) []event.Addr {
	s := e.lockSnapshot(t)
	if s == nil {
		return nil
	}
	out := make([]event.Addr, len(s))
	copy(out, s)
	return out
}

// WriteLockset computes the current lockset guarding the last write of
// (o, d) by lazily evaluating the update rules up to the present, or
// nil if the variable has never been written. It is the optimized
// engine's counterpart of SpecEngine.WriteLockset, used for diagnostics
// and for the lockset-level equivalence tests; the returned set is a
// private copy.
func (e *Engine) WriteLockset(o event.Addr, d event.FieldID) *Lockset {
	vs := e.lookupState(o, d)
	if vs == nil {
		return nil
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.write == nil {
		return nil
	}
	end := e.list.snapshotTail()
	ls := vs.write.ls.Clone()
	applyRules(ls, vs.write.pos, end, e.rules(), false, 0, 0)
	return ls
}
