package hb

import (
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// Detector is an online, precise vector-clock race detector over the
// extended happens-before relation — the classical approach (Djit+,
// TRaDe) that the paper cites as "precise but typically computationally
// expensive". It serves both as a second precision oracle and as the
// cost baseline in the detector-comparison benchmarks.
//
// Per data variable it keeps: the last plain write as a FastTrack-style
// epoch, the accumulated clocks of plain reads since that write, the
// accumulated clock of commits that wrote the variable, and the
// accumulated clock of commits that accessed it at all. The check at
// each access follows the conflicting-pair cases of the extended-race
// definition.
type Detector struct {
	clocks *clockState
	vars   map[event.Variable]*varClocks
}

type varClocks struct {
	// lastWrite is the last plain write as a FastTrack-style epoch: a
	// write at time ts by thread t happens-before clock C iff
	// ts <= C[t], because any join chain that propagated the writer's
	// tick propagated its whole clock. One comparison instead of a
	// clock-sized one. The zero epoch means "never written".
	lastWrite   epoch
	reads       vc // join of plain reads since last plain write (nil if none)
	txnWrites   vc // join of commits writing the variable
	txnAccesses vc // join of commits reading or writing the variable
}

// NewDetector returns an empty vector-clock detector with the paper's
// shared-variable transaction semantics.
func NewDetector() *Detector { return NewDetectorSem(event.TxnSharedVariable) }

// NewDetectorSem returns a vector-clock detector under the chosen
// transaction semantics.
func NewDetectorSem(sem event.TxnSemantics) *Detector {
	return &Detector{clocks: newClockState(sem), vars: make(map[event.Variable]*varClocks)}
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "vectorclock" }

func (d *Detector) varOf(v event.Variable) *varClocks {
	s, ok := d.vars[v]
	if !ok {
		s = &varClocks{}
		d.vars[v] = s
	}
	return s
}

// Step implements detect.Detector. The clock state handles every
// synchronization action; Step checks and records data accesses
// against the acting thread's clock after it.
func (d *Detector) Step(a event.Action) []detect.Race {
	a, c := d.clocks.step(a)
	switch a.Kind {
	case event.KindAlloc:
		// A fresh object has fresh variables: drop any state left from a
		// previous object at the same address.
		for v := range d.vars {
			if v.Obj == a.Obj {
				delete(d.vars, v)
			}
		}
	case event.KindRead:
		v := a.Variable()
		s := d.varOf(v)
		var races []detect.Race
		if !s.lastWrite.lessEq(c) || !s.txnWrites.lessEq(c) {
			races = append(races, detect.Race{Var: v, Access: a})
		}
		s.reads = joined(s.reads, c)
		return races
	case event.KindWrite:
		v := a.Variable()
		s := d.varOf(v)
		var races []detect.Race
		if !s.lastWrite.lessEq(c) || !s.reads.lessEq(c) || !s.txnAccesses.lessEq(c) {
			races = append(races, detect.Race{Var: v, Access: a})
		}
		s.lastWrite = epoch{tid: a.Thread, time: c[a.Thread]}
		s.reads = nil
		return races
	case event.KindCommit:
		var races []detect.Race
		w2r := d.clocks.sem == event.TxnWriteToRead
		seen := make(map[event.Variable]bool)
		check := func(v event.Variable, isWrite bool) {
			if seen[v] {
				return
			}
			seen[v] = true
			s := d.varOf(v)
			// Case 2: a commit accessing v vs an unordered plain write.
			racy := !s.lastWrite.lessEq(c)
			if isWrite {
				// Case 3: a commit writing v vs an unordered plain read;
				// under write-to-read, also vs an unordered commit
				// accessing v.
				racy = racy || !s.reads.lessEq(c) || w2r && !s.txnAccesses.lessEq(c)
			} else {
				// Under write-to-read, a commit reading v vs an unordered
				// commit writing it.
				racy = racy || w2r && !s.txnWrites.lessEq(c)
			}
			if racy {
				races = append(races, detect.Race{Var: v, Access: a})
			}
		}
		for _, v := range a.Writes {
			check(v, true)
		}
		for _, v := range a.Reads {
			check(v, false)
		}
		for _, v := range a.Reads {
			d.recordTxn(v, c, false)
		}
		for _, v := range a.Writes {
			d.recordTxn(v, c, true)
		}
		return races
	}
	return nil
}

func (d *Detector) recordTxn(v event.Variable, c vc, isWrite bool) {
	s := d.varOf(v)
	s.txnAccesses = joined(s.txnAccesses, c)
	if isWrite {
		s.txnWrites = joined(s.txnWrites, c)
	}
}

// joined returns v joined with c, allocating v if it is nil.
func joined(v, c vc) vc {
	if v == nil {
		v = make(vc)
	}
	v.join(c)
	return v
}
