package hb

import (
	"maps"

	"goldilocks/internal/event"
)

// Oracle holds per-event vector clocks for a fixed trace. Build one with
// NewOracle (the paper's shared-variable transaction semantics) or
// NewOracleSem; it is immutable afterwards.
type Oracle struct {
	trace  *event.Trace
	sem    event.TxnSemantics
	clocks []vc // clock snapshot of each event, inclusive of itself
}

// NewOracle computes the extended happens-before relation for tr.
func NewOracle(tr *event.Trace) *Oracle {
	return NewOracleSem(tr, event.TxnSharedVariable)
}

// NewOracleSem computes the extended happens-before relation for tr
// under the chosen transaction semantics: it steps one clock state over
// the linearization in order and keeps a copy of each event's clock.
func NewOracleSem(tr *event.Trace, sem event.TxnSemantics) *Oracle {
	o := &Oracle{trace: tr, sem: sem, clocks: make([]vc, tr.Len())}
	s := newClockState(sem)
	for i := range o.clocks {
		_, c := s.step(tr.At(i))
		o.clocks[i] = maps.Clone(c)
	}
	return o
}

// Trace returns the trace the oracle was built over.
func (o *Oracle) Trace() *event.Trace { return o.trace }

// HappensBefore reports whether event i happens-before event j under the
// extended happens-before relation (i may equal j; an event trivially
// happens-before-or-equals itself).
func (o *Oracle) HappensBefore(i, j int) bool {
	return o.clocks[i].lessEq(o.clocks[j])
}

// Ordered reports whether events i and j are ordered either way.
func (o *Oracle) Ordered(i, j int) bool {
	return o.HappensBefore(i, j) || o.HappensBefore(j, i)
}

// conflicting reports whether actions a and b form one of the
// conflicting pairs of the extended-race definition on variable v:
//
//  1. write(o,d) vs read/write(o,d)
//  2. write(o,d) vs commit with (o,d) ∈ R∪W
//  3. read(o,d) vs commit with (o,d) ∈ W
//
// Two plain reads never conflict. Commit/commit pairs are exempt under
// the shared-variable and atomic-order semantics, where any two commits
// touching a common variable are ordered by construction; under the
// write-to-read semantics that guarantee disappears, so a commit pair
// conflicts exactly like plain accesses would (one of them must write
// v).
func (o *Oracle) conflicting(a, b event.Action, v event.Variable) bool {
	if a.Kind == event.KindCommit && b.Kind == event.KindCommit {
		if o.sem != event.TxnWriteToRead {
			return false
		}
		return a.WritesVar(v) || b.WritesVar(v)
	}
	// Normalize: let x be the plain access, y the other action.
	pairs := [2][2]event.Action{{a, b}, {b, a}}
	for _, p := range pairs {
		x, y := p[0], p[1]
		switch x.Kind {
		case event.KindWrite:
			if !x.Accesses(v) {
				continue
			}
			if y.Accesses(v) { // read, write, or commit touching v
				return true
			}
		case event.KindRead:
			if !x.Accesses(v) {
				continue
			}
			if y.Kind == event.KindWrite && y.Accesses(v) {
				return true
			}
			if y.Kind == event.KindCommit && y.WritesVar(v) {
				return true
			}
		}
	}
	return false
}

// RacePair describes an extended race found by the oracle: two unordered
// conflicting accesses to Var at trace positions I < J.
type RacePair struct {
	Var  event.Variable
	I, J int
}

// Races enumerates every extended race in the trace: all unordered
// conflicting pairs, grouped by variable, in (J, I) lexicographic order.
// Cost is quadratic in the number of accesses per variable; the oracle
// exists for testing, not production monitoring.
func (o *Oracle) Races() []RacePair {
	var out []RacePair
	o.eachRace(func(r RacePair) bool {
		out = append(out, r)
		return true
	})
	return out
}

// FirstRacePos returns the earliest trace position j that completes an
// extended race (the position where a precise online detector must
// report), and the corresponding pair; ok is false if the trace is free
// of extended races.
func (o *Oracle) FirstRacePos() (pair RacePair, ok bool) {
	o.eachRace(func(r RacePair) bool {
		pair, ok = r, true
		return false
	})
	return pair, ok
}

// eachRace calls yield for every extended race in the order Races
// lists them, until yield returns false.
func (o *Oracle) eachRace(yield func(RacePair) bool) {
	accessesOf := o.accessIndex()
	for j := 0; j < o.trace.Len(); j++ {
		b := o.trace.At(j)
		for _, v := range actionVars(b) {
			for _, i := range accessesOf[v] {
				if i >= j {
					break
				}
				if o.conflicting(o.trace.At(i), b, v) && !o.Ordered(i, j) && !yield(RacePair{Var: v, I: i, J: j}) {
					return
				}
			}
		}
	}
}

// RacyVars returns the set of variables involved in at least one
// extended race anywhere in the trace.
func (o *Oracle) RacyVars() map[event.Variable]bool {
	out := make(map[event.Variable]bool)
	for _, r := range o.Races() {
		out[r.Var] = true
	}
	return out
}

func (o *Oracle) accessIndex() map[event.Variable][]int {
	idx := make(map[event.Variable][]int)
	for i := 0; i < o.trace.Len(); i++ {
		for _, v := range actionVars(o.trace.At(i)) {
			idx[v] = append(idx[v], i)
		}
	}
	return idx
}

// actionVars returns the data variables an action accesses.
func actionVars(a event.Action) []event.Variable {
	switch a.Kind {
	case event.KindRead, event.KindWrite:
		return []event.Variable{a.Variable()}
	case event.KindCommit:
		seen := make(map[event.Variable]bool, len(a.Reads)+len(a.Writes))
		var out []event.Variable
		for _, v := range a.Reads {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		for _, v := range a.Writes {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	return nil
}
