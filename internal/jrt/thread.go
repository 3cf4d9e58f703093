package jrt

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
)

// Thread is a managed thread. All object, monitor, and thread operations
// take the acting thread as receiver; a Thread must only be used from
// the goroutine running it.
type Thread struct {
	rt         *Runtime
	id         event.Tid
	terminated bool
	// heldMons are the monitors the thread currently owns (outermost
	// acquires only), maintained inside scheduler-atomic transitions;
	// the deadlock reporter reads it to say who holds what.
	heldMons []event.Addr
	// det is the thread's deterministic-scheduler state; nil in free
	// mode.
	det *detState
}

func (t *Thread) noteMonitorHeld(o event.Addr) { t.heldMons = append(t.heldMons, o) }
func (t *Thread) noteMonitorFreed(o event.Addr) {
	for i := len(t.heldMons) - 1; i >= 0; i-- {
		if t.heldMons[i] == o {
			t.heldMons = append(t.heldMons[:i], t.heldMons[i+1:]...)
			return
		}
	}
}

// ID returns the thread's identifier.
func (t *Thread) ID() event.Tid { return t.id }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Spawn starts a new thread running body and returns it. The fork
// happens-before everything body does. A DataRaceException that body
// does not catch terminates the thread (threadBody); other panics are
// host-level bugs and propagate.
func (t *Thread) Spawn(body func(u *Thread)) *Thread {
	u := t.rt.newThread()
	t.rt.sched.yield(t)
	t.rt.sync(event.Fork(t.id, u.id))
	t.rt.sched.start(u, t.rt.threadBody(u, body))
	return u
}

// threadBody wraps body as the body of thread u. As in the paper's
// runtime, a DataRaceException that body does not catch terminates the
// thread gracefully (the race is already recorded). A scheduler failure
// (deadlock) unwinds the thread with a *resilience.Report; the wrapper
// records it and lets the thread die quietly — the run is over. Other
// panics propagate: out of Runtime.Run in deterministic mode, and in
// free mode out of a spawned thread's goroutine, crashing the host.
func (rt *Runtime) threadBody(u *Thread, body func(u *Thread)) func() {
	return func() {
		defer func() {
			if r := recover(); r != nil {
				if rep, ok := r.(*resilience.Report); ok {
					rt.noteFailure(rep)
					return
				}
				panic(r)
			}
		}()
		defer rt.sched.exited(u)
		if drx := u.Try(func() { body(u) }); drx != nil {
			rt.noteUncaught(drx)
		}
	}
}

// Join blocks until u terminates; everything u did happens-before Join's
// return.
func (t *Thread) Join(u *Thread) {
	t.rt.sched.yield(t)
	t.rt.sched.exec(t, func() bool { return u.terminated })
	t.rt.sync(event.Join(t.id, u.id))
}

// Exec runs attempt atomically with respect to every other runtime
// state transition, blocking the thread until attempt returns true.
// attempt must be a try-operation: either apply its effect and return
// true, or leave state untouched and return false.
//
// Exec creates no detector events: it is the hook with which substrate
// packages (notably the stm transaction manager) implement their
// internal synchronization — synchronization that, as in the paper, must
// stay invisible to the race detector, which sees only the high-level
// commit(R, W) actions.
func (t *Thread) Exec(attempt func() bool) {
	t.rt.sched.yield(t)
	t.rt.sched.exec(t, attempt)
}

// CommitTxn reports a transaction's read and write sets to the race
// detector at its commit point and raises a DataRaceException if any
// accessed variable races (returning the remaining races when the
// policy is Log). Transaction managers call this; application code uses
// the stm package.
func (t *Thread) CommitTxn(reads, writes []event.Variable) {
	rt := t.rt
	rt.syncOps.Add(1)
	rt.totalAccesses.Add(uint64(len(reads) + len(writes)))
	if rt.det == nil {
		return
	}
	rt.checkedAccesses.Add(uint64(len(reads) + len(writes)))
	races := rt.det.Commit(t.id, reads, writes)
	if len(races) == 0 {
		return
	}
	for _, r := range races {
		rt.recordRace(r)
	}
	if rt.policy == Throw {
		rt.racesThrown.Add(1)
		panic(&DataRaceException{Race: races[0], Thread: t.id})
	}
}

// Try runs body and catches a DataRaceException thrown by it, returning
// the exception (nil if none). Other panics propagate.
func (t *Thread) Try(body func()) (drx *DataRaceException) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*DataRaceException); ok {
				drx = e
				return
			}
			panic(r)
		}
	}()
	body()
	return nil
}

// New allocates an object of class c. Allocation resets the detector's
// per-field state for the address (Figure 5, rule 8).
func (t *Thread) New(c *Class) *Object {
	o := &Object{
		class:    c,
		addr:     event.Addr(t.rt.nextAddr.Add(1)),
		slots:    make([]atomic.Pointer[Value], len(c.Fields)),
		arrayLen: -1,
	}
	t.rt.varsCreated.Add(uint64(dataFieldCount(c)))
	t.alloc(o)
	return o
}

// NewArray allocates an array of n elements; each element is a distinct
// data variable for the detector.
func (t *Thread) NewArray(n int) *Object {
	if n < 0 {
		panic(fmt.Sprintf("jrt: negative array length %d", n))
	}
	o := &Object{
		class:    arrayClass,
		addr:     event.Addr(t.rt.nextAddr.Add(1)),
		slots:    make([]atomic.Pointer[Value], n),
		arrayLen: n,
	}
	t.rt.varsCreated.Add(uint64(n))
	t.alloc(o)
	return o
}

// alloc reports the new object o to the detector. Addresses are never
// reused, so once o is unreachable its variables are never accessed
// again: a cleanup then tells the engine it may drop them. The cleanup
// runs on the Go runtime's cleanup goroutine and only queues the
// address; the engine drops it during a later Alloc, on a monitored
// thread.
func (t *Thread) alloc(o *Object) {
	o.mon.notified = make(map[*Thread]bool)
	t.rt.sched.yield(t)
	if t.rt.det != nil {
		t.rt.det.Alloc(t.id, o.addr)
	}
	if t.rt.free != nil {
		runtime.AddCleanup(o, t.rt.free, o.addr)
	}
}

func dataFieldCount(c *Class) int {
	n := 0
	for _, f := range c.Fields {
		if !f.Volatile {
			n++
		}
	}
	return n
}

// Get reads data field f of o and race-checks the read; GetUnchecked is
// the read whose check static analysis eliminated.
func (t *Thread) Get(o *Object, f event.FieldID) Value {
	if o.class.Fields[f].Volatile {
		return t.GetVolatile(o, f)
	}
	t.rt.sched.yield(t)
	t.access(o, f, false)
	return o.load(f)
}

// Set writes data field f of o.
func (t *Thread) Set(o *Object, f event.FieldID, v Value) {
	if o.class.Fields[f].Volatile {
		t.SetVolatile(o, f, v)
		return
	}
	t.rt.sched.yield(t)
	t.access(o, f, true)
	o.store(f, v)
}

// GetField / SetField address fields by name (convenience for examples).
func (t *Thread) GetField(o *Object, name string) Value {
	return t.Get(o, o.class.MustFieldID(name))
}

// SetField writes the named field.
func (t *Thread) SetField(o *Object, name string, v Value) {
	t.Set(o, o.class.MustFieldID(name), v)
}

// Load reads array element i.
func (t *Thread) Load(o *Object, i int) Value {
	o.checkIndex(i)
	t.rt.sched.yield(t)
	t.arrayAccess(o, event.FieldID(i), false)
	return o.load(event.FieldID(i))
}

// Store writes array element i.
func (t *Thread) Store(o *Object, i int, v Value) {
	o.checkIndex(i)
	t.rt.sched.yield(t)
	t.arrayAccess(o, event.FieldID(i), true)
	o.store(event.FieldID(i), v)
}

// arrayAccess widens the disable-after-race policy to the whole array
// when Config.DisableArrayAfterRace is set.
func (t *Thread) arrayAccess(o *Object, f event.FieldID, isWrite bool) {
	if t.rt.arrayDisabled(o.addr) {
		t.rt.totalAccesses.Add(1)
		return
	}
	racesBefore := t.rt.racesSeen()
	defer func() {
		if t.rt.disableArrays && t.rt.racesSeen() > racesBefore {
			t.rt.disableArray(o.addr)
		}
	}()
	t.access(o, f, isWrite)
}

// LoadUnchecked / StoreUnchecked access array elements with race
// checking disabled (used when static analysis proves the accesses
// race-free, and by the transaction manager whose commits subsume the
// element accesses).
func (t *Thread) LoadUnchecked(o *Object, i int) Value {
	o.checkIndex(i)
	t.rt.sched.yield(t)
	t.rt.totalAccesses.Add(1)
	return o.load(event.FieldID(i))
}

// StoreUnchecked writes array element i without race checking.
func (t *Thread) StoreUnchecked(o *Object, i int, v Value) {
	o.checkIndex(i)
	t.rt.sched.yield(t)
	t.rt.totalAccesses.Add(1)
	o.store(event.FieldID(i), v)
}

// GetUnchecked reads field f without race checking (static analysis
// said the access site cannot race).
func (t *Thread) GetUnchecked(o *Object, f event.FieldID) Value {
	t.rt.sched.yield(t)
	t.rt.totalAccesses.Add(1)
	return o.load(f)
}

// SetUnchecked writes field f without race checking.
func (t *Thread) SetUnchecked(o *Object, f event.FieldID, v Value) {
	t.rt.sched.yield(t)
	t.rt.totalAccesses.Add(1)
	o.store(f, v)
}

// access performs the bookkeeping and race check for a data access.
func (t *Thread) access(o *Object, f event.FieldID, isWrite bool) {
	rt := t.rt
	rt.totalAccesses.Add(1)
	if rt.det == nil {
		return
	}
	rt.checkedAccesses.Add(1)
	var race *detect.Race
	if isWrite {
		race = rt.det.Write(t.id, o.addr, f)
	} else {
		race = rt.det.Read(t.id, o.addr, f)
	}
	if race == nil {
		return
	}
	rt.recordRace(*race)
	if rt.policy == Throw {
		rt.racesThrown.Add(1)
		panic(&DataRaceException{Race: *race, Thread: t.id})
	}
}

// GetVolatile reads volatile field f of o: a synchronization action.
// The load and the detector event are performed atomically with respect
// to other synchronization actions, so the synchronization order the
// detector records matches the order the memory operations actually
// took. In free mode the read also yields the processor: volatile reads
// in a loop are almost always a spin-wait, and the writer needs CPU
// time to ever satisfy it.
func (t *Thread) GetVolatile(o *Object, f event.FieldID) Value {
	t.rt.sched.yield(t)
	var v Value
	t.rt.sched.exec(t, func() bool {
		v = o.load(f)
		t.rt.sync(event.VolatileRead(t.id, o.addr, f))
		return true
	})
	if _, free := t.rt.sched.(*freeSched); free {
		runtime.Gosched()
	}
	return v
}

// SetVolatile writes volatile field f of o: a synchronization action.
func (t *Thread) SetVolatile(o *Object, f event.FieldID, v Value) {
	t.rt.sched.yield(t)
	t.rt.sched.exec(t, func() bool {
		o.store(f, v)
		t.rt.sync(event.VolatileWrite(t.id, o.addr, f))
		return true
	})
}
