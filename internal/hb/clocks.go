// Package hb implements the extended happens-before relation of Section 3
// of the Goldilocks paper with vector clocks (Mattern 1988).
//
// One clock state, stepped once per action, holds the relation: it joins
// the action's incoming extended synchronizes-with edges into the acting
// thread's clock, ticks that clock, and publishes the outgoing edges.
// Two clients read the clock it returns:
//
//   - Oracle: an offline reference implementation that keeps a copy of
//     the clock of every event of a trace and answers happens-before and
//     extended-race queries. It is the ground truth against which the
//     Goldilocks engines are property-tested (Theorem 1).
//   - Detector: an online pure vector-clock race detector (in the style
//     of Djit+/TRaDe), the "precise but typically computationally
//     expensive" baseline the paper contrasts with Goldilocks. It adds
//     only per-variable access history.
package hb

import (
	"goldilocks/internal/event"
	"goldilocks/internal/report"
)

// vc is a vector clock: logical time per thread, zero where absent.
type vc map[event.Tid]uint64

// join sets v to the componentwise maximum of v and u.
func (v vc) join(u vc) {
	for t, n := range u {
		if n > v[t] {
			v[t] = n
		}
	}
}

// lessEq reports whether v happens-before-or-equals u componentwise
// (v ⊑ u).
func (v vc) lessEq(u vc) bool {
	for t, n := range v {
		if n > u[t] {
			return false
		}
	}
	return true
}

// epoch is the FastTrack-style compressed clock: a single (thread, time)
// pair, which the Detector uses for last-write metadata. The zero epoch
// precedes every clock.
type epoch struct {
	tid  event.Tid
	time uint64
}

// lessEq reports whether the epoch happens-before-or-equals clock u: the
// single component is covered by u.
func (e epoch) lessEq(u vc) bool { return e.time <= u[e.tid] }

// clockState steps the extended happens-before relation over a
// linearization. Besides the per-thread clocks it keeps what each
// release side of a synchronizes-with edge publishes for the acquire
// side to join: per lock the releases, per volatile the writes, per
// channel slot element the operations so far (the slots share the
// volatiles map; the FieldID namespaces are disjoint), and per variable
// (or, under atomic-order semantics, globally) the commits.
type clockState struct {
	sem       event.TxnSemantics
	threads   map[event.Tid]vc
	locks     map[event.Addr]vc
	volatiles map[event.Volatile]vc
	txn       map[event.Variable]vc
	txnAll    vc
	chans     *event.ChanTracker
}

func newClockState(sem event.TxnSemantics) *clockState {
	return &clockState{
		sem:       sem,
		threads:   make(map[event.Tid]vc),
		locks:     make(map[event.Addr]vc),
		volatiles: make(map[event.Volatile]vc),
		txn:       make(map[event.Variable]vc),
		txnAll:    make(vc),
		chans:     event.NewChanTracker(),
	}
}

// step applies action a: it joins a's incoming edges into the acting
// thread's clock, ticks it, and publishes a's outgoing edges. It returns
// a with channel operations normalized to their slot elements, and the
// acting thread's clock, which later steps mutate (copy it to keep it).
// A channel operation that the tracker rejects is a malformed
// linearization: step panics with a structured corruption report, which
// jrt's guard recovers into a quarantine.
func (s *clockState) step(a event.Action) (event.Action, vc) {
	a, err := s.chans.Normalize(a)
	if err != nil {
		panic(&report.Report{Kind: report.Corruption, Detail: "hb: malformed linearization: " + err.Error()})
	}
	c := s.thread(a.Thread)

	switch a.Kind {
	case event.KindAcquire:
		joinFrom(c, s.locks, a.Obj)
	case event.KindVolatileRead, event.KindChanSend, event.KindChanRecv:
		// Both directions of a channel rendezvous acquire the slot (or,
		// for a drain recv, the closed element).
		joinFrom(c, s.volatiles, a.Volatile())
	case event.KindJoin:
		joinFrom(c, s.threads, a.Peer)
	case event.KindCommit:
		if s.sem == event.TxnAtomicOrder {
			c.join(s.txnAll)
			break
		}
		// A commit sees the earlier commits that published through a
		// variable it reads (write-to-read) or accesses at all
		// (shared-variable).
		for _, v := range a.Reads {
			joinFrom(c, s.txn, v)
		}
		if s.sem != event.TxnWriteToRead {
			for _, v := range a.Writes {
				joinFrom(c, s.txn, v)
			}
		}
	}

	c[a.Thread]++

	switch a.Kind {
	case event.KindRelease:
		publish(s.locks, a.Obj, c)
	case event.KindVolatileWrite, event.KindChanClose:
		publish(s.volatiles, a.Volatile(), c)
	case event.KindChanSend, event.KindChanRecv:
		// A drain recv acquires the close's broadcast but releases
		// nothing.
		if a.Field != event.ChanClosedField {
			publish(s.volatiles, a.Volatile(), c)
		}
	case event.KindFork:
		// fork(u) happens-before every action of u: seed u's clock.
		publish(s.threads, a.Peer, c)
	case event.KindCommit:
		// Shared-variable publishes through every accessed variable,
		// write-to-read only through written ones.
		switch s.sem {
		case event.TxnAtomicOrder:
			s.txnAll.join(c)
		case event.TxnWriteToRead:
			for _, v := range a.Writes {
				publish(s.txn, v, c)
			}
		default:
			for _, v := range a.Reads {
				publish(s.txn, v, c)
			}
			for _, v := range a.Writes {
				publish(s.txn, v, c)
			}
		}
	}
	return a, c
}

func (s *clockState) thread(t event.Tid) vc {
	c, ok := s.threads[t]
	if !ok {
		c = make(vc)
		s.threads[t] = c
	}
	return c
}

// joinFrom joins the clock published under k, if any, into c.
func joinFrom[K comparable](c vc, m map[K]vc, k K) {
	if p, ok := m[k]; ok {
		c.join(p)
	}
}

// publish joins c into the clock published under k.
func publish[K comparable](m map[K]vc, k K, c vc) {
	p, ok := m[k]
	if !ok {
		p = make(vc)
		m[k] = p
	}
	p.join(c)
}
