package jrt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// Detector is the runtime-facing race-detector interface: concurrent
// entry points for each action class. *core.Engine satisfies it
// natively — its hot path runs without any global lock (sharded
// variable state, lock-free list snapshots, per-thread lock records;
// see docs/PERFORMANCE.md) — so the runtime routes it directly.
// Serialize is the one adapter from the trace-based detect.Detector
// implementations (vector-clock, Eraser, ...), which assume a single
// caller.
type Detector interface {
	Sync(a event.Action)
	Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race
	Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race
	Commit(t event.Tid, reads, writes []event.Variable) []detect.Race
	Alloc(t event.Tid, o event.Addr)
}

var _ Detector = (*core.Engine)(nil)

// Serialize wraps a single-threaded detect.Detector (the vector-clock
// detector, Eraser, ...) behind a mutex so it can serve as a runtime
// detector: a Recorder with recording switched off. The serialization
// also fixes the linearization the detector observes. A detector that
// already implements Detector (*core.Engine) is returned unchanged.
func Serialize(d detect.Detector) Detector {
	if rd, ok := d.(Detector); ok {
		return rd
	}
	return &Recorder{d: d}
}

// Sync, Read, Write, Commit and Alloc implement Detector: each steps the
// wrapped detector with the matching action.
func (r *Recorder) Sync(a event.Action) { r.step(a) }

func (r *Recorder) Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	if rs := r.step(event.Read(t, o, f)); len(rs) > 0 {
		return &rs[0]
	}
	return nil
}

func (r *Recorder) Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	if rs := r.step(event.Write(t, o, f)); len(rs) > 0 {
		return &rs[0]
	}
	return nil
}

func (r *Recorder) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	return r.step(event.Commit(t, reads, writes))
}

func (r *Recorder) Alloc(t event.Tid, o event.Addr) { r.step(event.Alloc(t, o)) }

// positioned numbers the actions a detector receives. In deterministic
// mode one thread runs at a time, so the detector's calls form a total
// order, and the count gives each race its Pos: the index of its action
// in that order, which is where racereplay reports the race on the
// run's recording. A Recorder numbers its own steps, so it needs no
// wrapper; under the free scheduler a detector attached directly sees
// no total order, and its races keep Pos 0.
type positioned struct {
	Detector
	n int
}

func (d *positioned) Sync(a event.Action) {
	d.n++
	d.Detector.Sync(a)
}

func (d *positioned) Alloc(t event.Tid, o event.Addr) {
	d.n++
	d.Detector.Alloc(t, o)
}

func (d *positioned) Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	return d.at(d.Detector.Read(t, o, f))
}

func (d *positioned) Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	return d.at(d.Detector.Write(t, o, f))
}

func (d *positioned) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	races := d.Detector.Commit(t, reads, writes)
	for i := range races {
		races[i].Pos = d.n
	}
	d.n++
	return races
}

func (d *positioned) at(r *detect.Race) *detect.Race {
	if r != nil {
		r.Pos = d.n
	}
	d.n++
	return r
}

// RacePolicy selects what the runtime does when the detector reports a
// race at an access.
type RacePolicy uint8

const (
	// Throw raises a DataRaceException in the accessing thread (the
	// paper's runtime).
	Throw RacePolicy = iota
	// Log records the race and lets the access proceed (debugging-tool
	// mode).
	Log
)

// Mode selects the thread scheduler.
type Mode uint8

const (
	// Deterministic runs threads under a seeded cooperative scheduler;
	// every run with the same seed produces the same interleaving.
	Deterministic Mode = iota
	// Free runs threads as ordinary goroutines.
	Free
)

// Config configures a Runtime.
type Config struct {
	// Detector checks accesses; nil disables race checking entirely
	// (the "uninstrumented" baseline of Table 1).
	Detector Detector
	// Policy is what to do on a detected race.
	Policy RacePolicy
	// Mode selects the scheduler.
	Mode Mode
	// Seed drives the Deterministic scheduler.
	Seed int64
	// Chooser, when non-nil, overrides Seed: scheduling decisions are
	// delegated to it (systematic exploration).
	Chooser Chooser
	// DisableArrayAfterRace mirrors the paper's measurement policy:
	// once any element of an array races, checks for every index of
	// that array are disabled ("checks for all the indices of an array
	// were disabled when a race is detected on any index of the
	// array").
	DisableArrayAfterRace bool
}

// Runtime is a race-aware managed runtime instance.
type Runtime struct {
	det    Detector
	policy RacePolicy
	sched  scheduler

	// free, when the detector is a *core.Engine, is its Freer: every
	// allocated object gets a cleanup that passes its address to it
	// once the object is unreachable, so the engine can drop the dead
	// object's variables (core.Engine.Free).
	free func(event.Addr)

	classMu sync.Mutex
	classes map[string]*Class

	nextAddr atomic.Int64
	nextTid  atomic.Int32

	disableArrays bool
	disabledMu    sync.Mutex
	disabledObjs  map[event.Addr]bool

	// Statistics for Tables 1 and 2.
	totalAccesses   atomic.Uint64
	checkedAccesses atomic.Uint64
	varsCreated     atomic.Uint64
	syncOps         atomic.Uint64
	racesThrown     atomic.Uint64

	raceMu   sync.Mutex
	races    []detect.Race
	uncaught []*DataRaceException
	failure  *resilience.Report
}

// NewRuntime creates a runtime from cfg.
func NewRuntime(cfg Config) *Runtime {
	rt := &Runtime{
		det:           cfg.Detector,
		policy:        cfg.Policy,
		classes:       make(map[string]*Class),
		disableArrays: cfg.DisableArrayAfterRace,
		disabledObjs:  make(map[event.Addr]bool),
	}
	if e, ok := cfg.Detector.(*core.Engine); ok {
		rt.free = e.Freer()
	}
	switch cfg.Mode {
	case Free:
		rt.sched = newFreeSched()
	default:
		if _, rec := cfg.Detector.(*Recorder); cfg.Detector != nil && !rec {
			rt.det = &positioned{Detector: cfg.Detector}
		}
		if cfg.Chooser != nil {
			rt.sched = newDetSchedChooser(cfg.Chooser)
		} else {
			rt.sched = newDetSched(cfg.Seed)
		}
	}
	return rt
}

// DataRaceException is thrown (as a panic in the accessing thread) when
// an access that would complete an actual data race is about to execute.
// Catch it with Thread.Try.
type DataRaceException struct {
	Race   detect.Race
	Thread event.Tid
}

func (e *DataRaceException) Error() string {
	return fmt.Sprintf("DataRaceException in %v: %v", e.Thread, &e.Race)
}

// DefineClass registers (or returns the existing) class with the given
// fields.
func (rt *Runtime) DefineClass(name string, fields ...FieldDecl) *Class {
	rt.classMu.Lock()
	defer rt.classMu.Unlock()
	if c, ok := rt.classes[name]; ok {
		return c
	}
	c := &Class{Name: name, Fields: fields, byName: make(map[string]event.FieldID, len(fields))}
	for i, f := range fields {
		c.byName[f.Name] = event.FieldID(i)
	}
	rt.classes[name] = c
	return c
}

// Class returns the class registered under name, or nil.
func (rt *Runtime) Class(name string) *Class {
	rt.classMu.Lock()
	defer rt.classMu.Unlock()
	return rt.classes[name]
}

// Run executes main as the initial thread and returns after every thread
// spawned (transitively) has terminated. It returns the list of races
// observed (thrown or logged). In deterministic mode the calling
// goroutine drives the run: every thread, main included, is a coroutine
// that it resumes in turn. A host panic in any thread propagates out of
// Run; in free mode only the main thread's does, as spawned threads are
// goroutines.
//
// A deterministic-scheduler deadlock does not crash the process: Run
// returns the races observed so far and Failure() carries the
// structured resilience.Report (blocked threads, held locks, elapsed).
func (rt *Runtime) Run(main func(t *Thread)) []detect.Race {
	t := rt.newThread()
	rt.sched.run(t, rt.threadBody(t, main))
	rt.raceMu.Lock()
	defer rt.raceMu.Unlock()
	out := make([]detect.Race, len(rt.races))
	copy(out, rt.races)
	return out
}

func (rt *Runtime) newThread() *Thread {
	return &Thread{rt: rt, id: event.Tid(rt.nextTid.Add(1))}
}

// Stats reports the runtime's access accounting.
type Stats struct {
	// TotalAccesses counts every data access performed, checked or not.
	TotalAccesses uint64
	// CheckedAccesses counts accesses submitted to the detector.
	CheckedAccesses uint64
	// VarsCreated counts data variables brought into existence by
	// allocation (fields of objects, elements of arrays).
	VarsCreated uint64
	// SyncOps counts synchronization operations performed.
	SyncOps uint64
	// RacesThrown counts DataRaceExceptions raised.
	RacesThrown uint64
}

// Stats returns a snapshot of the counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		TotalAccesses:   rt.totalAccesses.Load(),
		CheckedAccesses: rt.checkedAccesses.Load(),
		VarsCreated:     rt.varsCreated.Load(),
		SyncOps:         rt.syncOps.Load(),
		RacesThrown:     rt.racesThrown.Load(),
	}
}

// RegisterMetrics binds the runtime's access accounting into reg under
// the goldilocks_runtime_ namespace, read at scrape time.
func (rt *Runtime) RegisterMetrics(reg *obs.Registry) {
	stat := func(name string, f func(Stats) uint64) {
		reg.RegisterGaugeFunc("goldilocks_runtime_"+name, func() float64 { return float64(f(rt.Stats())) })
	}
	stat("total_accesses", func(s Stats) uint64 { return s.TotalAccesses })
	stat("checked_accesses", func(s Stats) uint64 { return s.CheckedAccesses })
	stat("vars_created", func(s Stats) uint64 { return s.VarsCreated })
	stat("sync_ops", func(s Stats) uint64 { return s.SyncOps })
	stat("races_thrown", func(s Stats) uint64 { return s.RacesThrown })
	reg.RegisterGaugeFunc("goldilocks_runtime_races_recorded", func() float64 {
		return float64(rt.racesSeen())
	})
}

// Races returns the races observed so far.
func (rt *Runtime) Races() []detect.Race {
	rt.raceMu.Lock()
	defer rt.raceMu.Unlock()
	out := make([]detect.Race, len(rt.races))
	copy(out, rt.races)
	return out
}

// racesSeen returns the number of races recorded so far.
func (rt *Runtime) racesSeen() int {
	rt.raceMu.Lock()
	defer rt.raceMu.Unlock()
	return len(rt.races)
}

func (rt *Runtime) recordRace(r detect.Race) {
	rt.raceMu.Lock()
	rt.races = append(rt.races, r)
	rt.raceMu.Unlock()
}

// noteUncaught records a DataRaceException that no handler caught; the
// throwing thread has terminated, mirroring Java's uncaught-exception
// behaviour.
func (rt *Runtime) noteUncaught(drx *DataRaceException) {
	rt.raceMu.Lock()
	rt.uncaught = append(rt.uncaught, drx)
	rt.raceMu.Unlock()
}

// noteFailure records the first scheduler failure report.
func (rt *Runtime) noteFailure(r *resilience.Report) {
	rt.raceMu.Lock()
	if rt.failure == nil {
		rt.failure = r
	}
	rt.raceMu.Unlock()
}

// RecordFailure records a scheduler failure report recovered outside
// the runtime's own barriers. Substrate packages that convert the
// report panic into an error return (the stm transaction manager does,
// so Atomic's callers see a structured error instead of an unwinding
// goroutine) must report it here, or Failure() would claim a clean run.
func (rt *Runtime) RecordFailure(r *resilience.Report) { rt.noteFailure(r) }

// Failure returns the structured report of the scheduler failure that
// ended the run (a deterministic-mode deadlock), or nil if the run
// completed normally.
func (rt *Runtime) Failure() *resilience.Report {
	rt.raceMu.Lock()
	defer rt.raceMu.Unlock()
	return rt.failure
}

// Uncaught returns the DataRaceExceptions that terminated threads
// because no handler caught them.
func (rt *Runtime) Uncaught() []*DataRaceException {
	rt.raceMu.Lock()
	defer rt.raceMu.Unlock()
	out := make([]*DataRaceException, len(rt.uncaught))
	copy(out, rt.uncaught)
	return out
}

// arrayDisabled reports whether checks for the whole object are off.
func (rt *Runtime) arrayDisabled(o event.Addr) bool {
	if !rt.disableArrays {
		return false
	}
	rt.disabledMu.Lock()
	defer rt.disabledMu.Unlock()
	return rt.disabledObjs[o]
}

func (rt *Runtime) disableArray(o event.Addr) {
	rt.disabledMu.Lock()
	rt.disabledObjs[o] = true
	rt.disabledMu.Unlock()
}

func (rt *Runtime) sync(a event.Action) {
	rt.syncOps.Add(1)
	if rt.det != nil {
		rt.det.Sync(a)
	}
}
