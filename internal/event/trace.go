package event

import "fmt"

// Trace is a linearization of an execution: a sequence of actions that is
// consistent with each thread's program order and with the extended
// synchronization order. Detectors consume traces action by action.
type Trace struct {
	actions []Action
}

// NewTrace returns a trace over the given actions. The slice is retained.
func NewTrace(actions []Action) *Trace { return &Trace{actions: actions} }

// Len returns the number of actions in the trace.
func (tr *Trace) Len() int { return len(tr.actions) }

// At returns the i-th action.
func (tr *Trace) At(i int) Action { return tr.actions[i] }

// Actions returns the underlying action slice. Callers must not modify it.
func (tr *Trace) Actions() []Action { return tr.actions }

// Threads returns the set of thread ids appearing in the trace, in first-
// appearance order.
func (tr *Trace) Threads() []Tid {
	seen := make(map[Tid]bool)
	var out []Tid
	for _, a := range tr.actions {
		if !seen[a.Thread] {
			seen[a.Thread] = true
			out = append(out, a.Thread)
		}
	}
	return out
}

// Vars returns the set of data variables accessed (directly or through
// commits) in the trace, in first-access order.
func (tr *Trace) Vars() []Variable {
	seen := make(map[Variable]bool)
	var out []Variable
	add := func(v Variable) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, a := range tr.actions {
		switch a.Kind {
		case KindRead, KindWrite:
			add(a.Variable())
		case KindCommit:
			for _, v := range a.Reads {
				add(v)
			}
			for _, v := range a.Writes {
				add(v)
			}
		}
	}
	return out
}

// Validate checks structural well-formedness of the trace by stepping a
// Validator over it, and returns the first violation, naming the
// offending action and its index.
func (tr *Trace) Validate() error {
	v := NewValidator()
	for i, a := range tr.actions {
		if err := v.Step(a); err != nil {
			return fmt.Errorf("action %d (%v): %w", i, a, err)
		}
	}
	return nil
}

// Validator holds the trace-validity rules as an incremental state
// machine, so every consumer — Trace.Validate, trace salvage in
// ReadTrace — checks a record in O(1) against the prefix before it.
// A well-formed trace satisfies:
//
//   - lock acquire/release alternate correctly per object (reentrancy is
//     permitted: nested acquires by the owner count up);
//   - a release is performed only by the lock's current owner;
//   - a fork(u) precedes any action of u, and each thread is forked at
//     most once;
//   - a join(u) is preceded by at least one action of u or a fork of u
//     (thread existence), and no action of u follows a join(u);
//   - an alloc(o) does not follow an access to o (address reuse without
//     allocation ordering makes lockset resets unsound; traces without
//     explicit allocs are permitted: detectors treat first contact as
//     creation);
//   - channel operations respect the capacity-conveyor semantics
//     (ChanTracker): a channel is made exactly once before use, a
//     completed send implies buffer room and an open channel, a
//     completed recv implies a message in flight or a closed channel,
//     and close happens at most once;
//   - region markers balance per thread: a txend requires an open
//     txbegin by the same thread, and regions do not nest. A region
//     left open at the end of the trace is permitted.
//
// Every rule looks only at the prefix, so validity is prefix-closed:
// every prefix of a valid trace is valid (truncated trace files
// salvage their longest valid prefix, and checkpoint cuts land at
// arbitrary positions, including mid-region). A Validator whose Step
// errored must not be stepped further.
type Validator struct {
	lockOwner map[Addr]Tid
	lockDepth map[Addr]int
	forked    map[Tid]bool
	started   map[Tid]bool
	joined    map[Tid]bool
	touched   map[Addr]bool
	inRegion  map[Tid]bool
	chans     *ChanTracker
}

// NewValidator returns a validator for an empty prefix.
func NewValidator() *Validator {
	return &Validator{
		lockOwner: make(map[Addr]Tid),
		lockDepth: make(map[Addr]int),
		forked:    make(map[Tid]bool),
		started:   make(map[Tid]bool),
		joined:    make(map[Tid]bool),
		touched:   make(map[Addr]bool),
		inRegion:  make(map[Tid]bool),
		chans:     NewChanTracker(),
	}
}

// Step checks that a is valid after the prefix stepped so far.
func (v *Validator) Step(a Action) error {
	if a.Thread == NoTid {
		return fmt.Errorf("missing thread id")
	}
	if v.joined[a.Thread] {
		return fmt.Errorf("thread %v acts after being joined", a.Thread)
	}
	v.started[a.Thread] = true
	switch a.Kind {
	case KindAcquire:
		if owner, held := v.lockOwner[a.Obj]; held && owner != a.Thread {
			return fmt.Errorf("lock %v held by %v", a.Obj, owner)
		}
		v.lockOwner[a.Obj] = a.Thread
		v.lockDepth[a.Obj]++
	case KindRelease:
		owner, held := v.lockOwner[a.Obj]
		if !held {
			return fmt.Errorf("release of unheld lock %v", a.Obj)
		}
		if owner != a.Thread {
			return fmt.Errorf("release by non-owner (owner %v)", owner)
		}
		v.lockDepth[a.Obj]--
		if v.lockDepth[a.Obj] == 0 {
			delete(v.lockOwner, a.Obj)
			delete(v.lockDepth, a.Obj)
		}
	case KindFork:
		if v.forked[a.Peer] {
			return fmt.Errorf("thread %v forked twice", a.Peer)
		}
		if v.started[a.Peer] {
			return fmt.Errorf("thread %v forked after it acted", a.Peer)
		}
		v.forked[a.Peer] = true
	case KindJoin:
		if !v.forked[a.Peer] && !v.started[a.Peer] {
			return fmt.Errorf("join of unknown thread %v", a.Peer)
		}
		v.joined[a.Peer] = true
	case KindAlloc:
		if v.touched[a.Obj] {
			return fmt.Errorf("alloc of %v after it was accessed", a.Obj)
		}
	case KindChanMake, KindChanSend, KindChanRecv, KindChanClose:
		if _, err := v.chans.Normalize(a); err != nil {
			return err
		}
	case KindTxBegin:
		if v.inRegion[a.Thread] {
			return fmt.Errorf("nested txbegin by %v", a.Thread)
		}
		v.inRegion[a.Thread] = true
	case KindTxEnd:
		if !v.inRegion[a.Thread] {
			return fmt.Errorf("txend by %v without an open region", a.Thread)
		}
		v.inRegion[a.Thread] = false
	case KindRead, KindWrite:
		v.touched[a.Obj] = true
	case KindCommit:
		for _, x := range a.Reads {
			v.touched[x.Obj] = true
		}
		for _, x := range a.Writes {
			v.touched[x.Obj] = true
		}
	}
	return nil
}

// Builder incrementally constructs a trace. It is a convenience for tests
// and workload generators; methods return the builder for chaining.
type Builder struct {
	actions []Action
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder { return &Builder{} }

// Append adds an arbitrary action.
func (b *Builder) Append(a Action) *Builder { b.actions = append(b.actions, a); return b }

// Read appends read(o, d) by t.
func (b *Builder) Read(t Tid, o Addr, d FieldID) *Builder { return b.Append(Read(t, o, d)) }

// Write appends write(o, d) by t.
func (b *Builder) Write(t Tid, o Addr, d FieldID) *Builder { return b.Append(Write(t, o, d)) }

// Acquire appends acq(o) by t.
func (b *Builder) Acquire(t Tid, o Addr) *Builder { return b.Append(Acquire(t, o)) }

// Release appends rel(o) by t.
func (b *Builder) Release(t Tid, o Addr) *Builder { return b.Append(Release(t, o)) }

// VolatileRead appends read(o, v) by t.
func (b *Builder) VolatileRead(t Tid, o Addr, v FieldID) *Builder {
	return b.Append(VolatileRead(t, o, v))
}

// VolatileWrite appends write(o, v) by t.
func (b *Builder) VolatileWrite(t Tid, o Addr, v FieldID) *Builder {
	return b.Append(VolatileWrite(t, o, v))
}

// Fork appends fork(u) by t.
func (b *Builder) Fork(t, u Tid) *Builder { return b.Append(Fork(t, u)) }

// Join appends join(u) by t.
func (b *Builder) Join(t, u Tid) *Builder { return b.Append(Join(t, u)) }

// Alloc appends alloc(o) by t.
func (b *Builder) Alloc(t Tid, o Addr) *Builder { return b.Append(Alloc(t, o)) }

// Commit appends commit(R, W) by t.
func (b *Builder) Commit(t Tid, reads, writes []Variable) *Builder {
	return b.Append(Commit(t, reads, writes))
}

// ChanMake appends chmake(c, cap) by t.
func (b *Builder) ChanMake(t Tid, c Addr, capacity int32) *Builder {
	return b.Append(ChanMake(t, c, capacity))
}

// ChanSend appends send(c) by t.
func (b *Builder) ChanSend(t Tid, c Addr) *Builder { return b.Append(ChanSend(t, c)) }

// ChanRecv appends recv(c) by t.
func (b *Builder) ChanRecv(t Tid, c Addr) *Builder { return b.Append(ChanRecv(t, c)) }

// ChanClose appends close(c) by t.
func (b *Builder) ChanClose(t Tid, c Addr) *Builder { return b.Append(ChanClose(t, c)) }

// TxBegin appends a txbegin region marker by t.
func (b *Builder) TxBegin(t Tid) *Builder { return b.Append(TxBegin(t)) }

// TxEnd appends a txend region marker by t.
func (b *Builder) TxEnd(t Tid) *Builder { return b.Append(TxEnd(t)) }

// Trace finalizes the builder. The builder may continue to be used; the
// returned trace sees no later appends.
func (b *Builder) Trace() *Trace {
	actions := make([]Action, len(b.actions))
	copy(actions, b.actions)
	return NewTrace(actions)
}
