package core

import (
	"slices"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/report"
)

// SpecEngine is the executable specification of the generalized
// Goldilocks algorithm: the lockset update rules of Figure 5 applied
// eagerly to every tracked lockset at every synchronization action,
// extended with the read/write distinction of Section 5.
//
// Per data variable it maintains the lockset of the last write access
// and, for each thread, the lockset of that thread's last read access
// since the last write (mirroring WriteInfo/ReadInfo in the optimized
// engine, but with explicit, eagerly-updated locksets). A read access is
// checked against the write lockset only; a write access is checked
// against the write lockset and every read lockset.
//
// The engine is deliberately simple and slow (every synchronization
// action touches every lockset); it exists as ground truth and for the
// lockset-evolution traces of Figures 6 and 7.
type SpecEngine struct {
	sem    event.TxnSemantics
	writes map[event.Variable]*Lockset
	reads  map[event.Variable]map[event.Tid]*Lockset

	// chans normalizes channel operations to the conveyor-slot or closed
	// synchronization elements they transfer locksets through. A channel
	// operation that could not have completed (send on a closed channel,
	// recv with nothing in flight) is a malformed linearization: the spec
	// engine panics with a structured corruption report rather than guess
	// at semantics.
	chans *event.ChanTracker

	// log records every processed synchronization action (the spec
	// engine's equivalent of the optimized engine's event list), and
	// writesAt/readsAt record, per tracked lockset, the access that
	// created it and its log position. Together they let a detected race
	// be explained with the same provenance the optimized engine
	// reconstructs (obs.Provenance).
	log      []event.Action
	writesAt map[event.Variable]*specAccess
	readsAt  map[event.Variable]map[event.Tid]*specAccess

	// fires counts, per rule, the actions of the linearization that
	// triggered it (see RuleFires).
	fires [obs.NumRules + 1]uint64
}

// specAccess describes the access that created a tracked lockset: who
// performed it, the action, whether it was transactional, and the log
// position just after it (the point its lockset was valid at).
type specAccess struct {
	owner  event.Tid
	action event.Action
	xact   bool
	idx    int
}

// NewSpecEngine returns an empty specification engine using the
// paper's shared-variable transaction semantics.
func NewSpecEngine() *SpecEngine {
	return NewSpecEngineSem(event.TxnSharedVariable)
}

// NewSpecEngineSem returns a specification engine under the chosen
// transaction semantics (Section 3's alternative interpretations of
// strong atomicity).
func NewSpecEngineSem(sem event.TxnSemantics) *SpecEngine {
	return &SpecEngine{
		sem:      sem,
		writes:   make(map[event.Variable]*Lockset),
		reads:    make(map[event.Variable]map[event.Tid]*Lockset),
		chans:    event.NewChanTracker(),
		writesAt: make(map[event.Variable]*specAccess),
		readsAt:  make(map[event.Variable]map[event.Tid]*specAccess),
	}
}

// RuleFires returns the per-rule fire counts, counted the same
// event-level way the optimized engine counts them, so both report
// identical counts for the same linearization. Index 0 is always zero.
func (s *SpecEngine) RuleFires() [obs.NumRules + 1]uint64 {
	out := s.fires
	out[0] = 0
	return out
}

// Name implements detect.Detector.
func (s *SpecEngine) Name() string { return "spec" }

// WriteLockset returns the current lockset guarding the last write to v,
// or nil if v has not been written. The caller must not modify it.
func (s *SpecEngine) WriteLockset(v event.Variable) *Lockset { return s.writes[v] }

// forEach applies f to every tracked lockset.
func (s *SpecEngine) forEach(f func(ls *Lockset)) {
	for _, ls := range s.writes {
		f(ls)
	}
	for _, byTid := range s.reads {
		for _, ls := range byTid {
			f(ls)
		}
	}
}

// Step implements detect.Detector.
func (s *SpecEngine) Step(a event.Action) []detect.Race {
	var races []detect.Race
	t := a.Thread
	te := ThreadElem(t)

	if a.Kind.IsMarker() {
		// Region markers are serializability-checker annotations, not
		// synchronization: no rule fires, no log entry, no lockset
		// update. Mirrors the optimized engine's skip so both engines
		// stay event-for-event identical on marked traces.
		return nil
	}
	if a.Kind.IsChan() {
		na, err := s.chans.Normalize(a)
		if err != nil {
			panic(&report.Report{Kind: report.Corruption, Detail: "spec engine: malformed linearization: " + err.Error()})
		}
		a = na
	}

	// Event-level rule fires, matching the optimized engine: rule 1 per
	// plain data access, the action's own rule otherwise.
	if a.Kind.IsData() {
		s.fires[obs.RuleAccess]++
	} else {
		s.fires[obs.RuleOf(a.Kind)]++
	}
	if a.Kind.IsSync() {
		// The log position of an access is the log length at the access;
		// a commit joins the log before its variables are checked, the
		// same order the optimized engine enqueues it.
		s.log = append(s.log, a)
	}

	switch a.Kind {
	case event.KindVolatileRead:
		ve := VolatileElem(a.Volatile())
		s.forEach(func(ls *Lockset) {
			if ls.Has(ve) {
				ls.Add(te)
			}
		})
	case event.KindVolatileWrite:
		ve := VolatileElem(a.Volatile())
		s.forEach(func(ls *Lockset) {
			if ls.Has(te) {
				ls.Add(ve)
			}
		})
	case event.KindAcquire:
		le := LockElem(a.Obj)
		s.forEach(func(ls *Lockset) {
			if ls.Has(le) {
				ls.Add(te)
			}
		})
	case event.KindRelease:
		le := LockElem(a.Obj)
		s.forEach(func(ls *Lockset) {
			if ls.Has(te) {
				ls.Add(le)
			}
		})
	case event.KindFork:
		ue := ThreadElem(a.Peer)
		s.forEach(func(ls *Lockset) {
			if ls.Has(te) {
				ls.Add(ue)
			}
		})
	case event.KindJoin:
		ue := ThreadElem(a.Peer)
		s.forEach(func(ls *Lockset) {
			if ls.Has(ue) {
				ls.Add(te)
			}
		})
	case event.KindChanMake:
		// No rule fires: chmake only registers the channel in the tracker
		// (already done by the Normalize above).
	case event.KindChanSend:
		// Rule 10: acquire the slot's prior recv edge, then release the
		// message onto the slot — in that order, per lockset.
		ce := VolatileElem(a.Volatile())
		s.forEach(func(ls *Lockset) {
			if ls.Has(ce) {
				ls.Add(te)
			}
			if ls.Has(te) {
				ls.Add(ce)
			}
		})
	case event.KindChanRecv:
		// Rule 11: the dual of rule 10; a drain recv from a closed channel
		// (normalized to the closed element) only acquires.
		ce := VolatileElem(a.Volatile())
		drain := a.Field == event.ChanClosedField
		s.forEach(func(ls *Lockset) {
			if ls.Has(ce) {
				ls.Add(te)
			}
			if !drain && ls.Has(te) {
				ls.Add(ce)
			}
		})
	case event.KindChanClose:
		// Rule 12: broadcast release onto the channel's closed element.
		ce := VolatileElem(a.Volatile())
		s.forEach(func(ls *Lockset) {
			if ls.Has(te) {
				ls.Add(ce)
			}
		})
	case event.KindAlloc:
		// Rule 8: fresh object, fresh (empty) locksets for its fields.
		for v := range s.writes {
			if v.Obj == a.Obj {
				delete(s.writes, v)
				delete(s.writesAt, v)
			}
		}
		for v := range s.reads {
			if v.Obj == a.Obj {
				delete(s.reads, v)
				delete(s.readsAt, v)
			}
		}
	case event.KindRead:
		v := a.Variable()
		if r := s.checkAccess(v, t, false, a); r != nil {
			races = append(races, *r)
		}
		s.readerSet(v, t, NewLockset(te), s.accessRecord(t, a, false))
	case event.KindWrite:
		v := a.Variable()
		if r := s.checkAccess(v, t, false, a); r != nil {
			races = append(races, *r)
		}
		s.writes[v] = NewLockset(te)
		s.writesAt[v] = s.accessRecord(t, a, false)
		delete(s.reads, v)
		delete(s.readsAt, v)
	case event.KindCommit:
		races = s.commit(a)
	}
	return races
}

// checkAccess performs the race-freedom check for an access to v by t.
// A read is checked against the write lockset; a write additionally
// against every read lockset. inTxn relaxes the check with TL
// membership: an access inside a transaction is race-free against a
// previous access that was also inside a transaction.
func (s *SpecEngine) checkAccess(v event.Variable, t event.Tid, inTxn bool, a event.Action) *detect.Race {
	ok := func(ls *Lockset) bool {
		if ls == nil || ls.Empty() {
			return true
		}
		if ls.HasThread(t) {
			return true
		}
		// The TL exemption encodes "commit/commit pairs never race",
		// which only holds when the semantics orders commits over a
		// common variable; under write-to-read it does not apply.
		return inTxn && s.sem != event.TxnWriteToRead && ls.Has(TL)
	}
	if !ok(s.writes[v]) {
		return s.raceAt(v, t, a, s.writesAt[v])
	}
	if a.Kind == event.KindWrite || (a.Kind == event.KindCommit && a.WritesVar(v)) {
		// Sorted reader order: the first racy reader is reported, so
		// map-order iteration would make the previous access (and its
		// provenance) vary between replays of the same linearization.
		tids := make([]event.Tid, 0, len(s.reads[v]))
		for u := range s.reads[v] {
			if u != t {
				tids = append(tids, u)
			}
		}
		slices.Sort(tids)
		for _, u := range tids {
			if !ok(s.reads[v][u]) {
				return s.raceAt(v, t, a, s.readsAt[v][u])
			}
		}
	}
	return nil
}

// raceAt builds the race report for an access a by t on v that
// conflicts with the earlier access prev, attaching provenance when the
// record is available.
func (s *SpecEngine) raceAt(v event.Variable, t event.Tid, a event.Action, prev *specAccess) *detect.Race {
	r := &detect.Race{Var: v, Access: a}
	if prev != nil {
		r.Prev = prev.action
		r.HasPrev = true
		r.Prov = s.buildProvenance(v, prev, t)
	}
	return r
}

// buildProvenance is the spec engine's provenance reconstruction: the
// same base-lockset re-derivation and rule replay as the optimized
// engine's, over the log segment after the previous access.
func (s *SpecEngine) buildProvenance(v event.Variable, prev *specAccess, t event.Tid) *obs.Provenance {
	p := &obs.Provenance{
		Var:    v.String(),
		Prev:   prev.action.String(),
		Thread: t.String(),
	}
	ls := baseLockset(prev.owner, prev.xact, prev.action, s.sem)
	p.Base = ls.String()
	provReplay(p, ls, s.log[prev.idx:], uint64(prev.idx), ruleSet{sem: s.sem})
	return p
}

// accessRecord builds the specAccess for an access happening now.
func (s *SpecEngine) accessRecord(t event.Tid, a event.Action, xact bool) *specAccess {
	return &specAccess{owner: t, action: a, xact: xact, idx: len(s.log)}
}

// commit applies rule 9 of Figure 5, generalized with the read/write
// distinction: an acquire phase over all locksets, a per-accessed-
// variable check-and-reset phase, and a release phase over all locksets.
func (s *SpecEngine) commit(a event.Action) []detect.Race {
	t := a.Thread
	te := ThreadElem(t)
	rw := make([]event.Variable, 0, len(a.Reads)+len(a.Writes))
	rw = append(rw, a.Reads...)
	rw = append(rw, a.Writes...)

	// Acquire phase: the committing thread becomes an owner of every
	// variable whose lockset witnesses an incoming synchronizes-with
	// edge under the configured transaction semantics.
	acquires := func(ls *Lockset) bool {
		switch s.sem {
		case event.TxnAtomicOrder:
			return ls.Has(TL)
		case event.TxnWriteToRead:
			return ls.IntersectsVars(a.Reads)
		default:
			return ls.IntersectsVars(rw)
		}
	}
	s.forEach(func(ls *Lockset) {
		if acquires(ls) {
			ls.Add(te)
		}
	})

	// Access phase: check and reset each accessed variable. A variable
	// in both R and W is treated as a write.
	var races []detect.Race
	written := make(map[event.Variable]bool, len(a.Writes))
	for _, v := range a.Writes {
		written[v] = true
	}
	checked := make(map[event.Variable]bool, len(rw))
	for _, v := range a.Writes {
		if checked[v] {
			continue
		}
		checked[v] = true
		if r := s.checkAccess(v, t, true, a); r != nil {
			races = append(races, *r)
		}
		s.writes[v] = NewLockset(te, TL)
		s.writesAt[v] = s.accessRecord(t, a, true)
		delete(s.reads, v)
		delete(s.readsAt, v)
	}
	for _, v := range a.Reads {
		if checked[v] || written[v] {
			continue
		}
		checked[v] = true
		if r := s.checkAccess(v, t, true, a); r != nil {
			races = append(races, *r)
		}
		s.readerSet(v, t, NewLockset(te, TL), s.accessRecord(t, a, true))
	}

	// Release phase: every variable owned by the committing thread can
	// now be re-acquired through the outgoing edge witnesses.
	release := func(ls *Lockset) {
		switch s.sem {
		case event.TxnAtomicOrder:
			ls.Add(TL)
		case event.TxnWriteToRead:
			ls.AddVars(a.Writes)
		default:
			ls.AddVars(rw)
		}
	}
	s.forEach(func(ls *Lockset) {
		if ls.Has(te) {
			release(ls)
		}
	})
	return races
}

func (s *SpecEngine) readerSet(v event.Variable, t event.Tid, ls *Lockset, rec *specAccess) {
	byTid, ok := s.reads[v]
	if !ok {
		byTid = make(map[event.Tid]*Lockset)
		s.reads[v] = byTid
	}
	byTid[t] = ls
	byRec, ok := s.readsAt[v]
	if !ok {
		byRec = make(map[event.Tid]*specAccess)
		s.readsAt[v] = byRec
	}
	byRec[t] = rec
}
