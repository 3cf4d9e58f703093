package jrt

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"goldilocks/internal/resilience"
)

// scheduler abstracts how threads interleave. All monitor/join/wait
// state transitions go through exec, whose attempt callback must be a
// try-operation: it either applies its effect and returns true, or
// leaves state untouched and returns false (the scheduler then blocks
// the thread until a retry succeeds).
type scheduler interface {
	// yield is an interleaving point, called before every managed
	// action.
	yield(t *Thread)
	// exec runs attempt atomically with respect to all other runtime
	// state transitions, blocking the thread until it succeeds.
	exec(t *Thread, attempt func() bool)
	// start makes body, a newly spawned thread, runnable.
	start(t *Thread, body func())
	// exited marks t terminated and schedules someone else.
	exited(t *Thread)
	// run runs body as the main thread t and returns once every thread
	// has exited, or the run has failed.
	run(t *Thread, body func())
}

// freeSched runs threads as plain goroutines. State transitions are
// serialized by a single mutex; blocked attempts wait on a condition
// variable that is broadcast after every successful transition.
type freeSched struct {
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
}

func newFreeSched() *freeSched {
	s := &freeSched{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *freeSched) yield(*Thread) {}

func (s *freeSched) exec(_ *Thread, attempt func() bool) {
	s.mu.Lock()
	for !attempt() {
		s.cond.Wait()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *freeSched) start(_ *Thread, body func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		body()
	}()
}

func (s *freeSched) exited(t *Thread) {
	s.exec(t, func() bool { t.terminated = true; return true })
}

// run runs the main thread on the calling goroutine; the wait group
// tracks only spawned threads, which is exactly what is left to wait
// for once main returns.
func (s *freeSched) run(_ *Thread, body func()) {
	body()
	s.wg.Wait()
}

// Chooser selects scheduling decisions for the deterministic scheduler:
// Choose(n) returns an index in [0, n). The default chooser is a seeded
// RNG; the explore package supplies systematic choosers that enumerate
// the schedule space.
//
// The candidate pool is ordered with the currently-running thread first
// whenever it remains runnable, so index 0 means "continue without
// preempting". A Chooser that additionally implements PreemptAware is
// told whether the current thread is in the pool, which lets it count
// preemptions exactly.
type Chooser interface {
	Choose(n int) int
}

// PreemptAware is an optional Chooser refinement: ChoosePreempt is
// called instead of Choose, with currentRunnable reporting whether
// index 0 is the currently-running thread (so any other choice is a
// preemption) or the switch is forced (the current thread blocked or
// exited).
type PreemptAware interface {
	ChoosePreempt(n int, currentRunnable bool) int
}

type rngChooser struct{ rng *rand.Rand }

func (c rngChooser) Choose(n int) int { return c.rng.Intn(n) }

// detSched is the deterministic cooperative scheduler. Every thread
// runs as a coroutine (coro.go), and the goroutine that called
// Runtime.Run is the driver: it resumes one thread at a time. At every
// scheduling point the running thread picks its successor through the
// Chooser, records it in next, and suspends back to the driver, which
// resumes the successor. Blocked threads register their pending attempt
// as a predicate that pick retries when choosing a successor. Only the
// driver and the one thread it resumed ever run, so no state here needs
// a lock.
type detSched struct {
	choose  Chooser
	preempt PreemptAware // choose, when it implements PreemptAware
	began   time.Time

	order []*Thread // live threads in registration order: the pool order
	pool  []*Thread // pick's candidate buffer, reused across picks
	// next is the thread the driver resumes once the running thread
	// suspends or returns; nil ends the run.
	next *Thread
	// failure is the structured deadlock report, set at most once. After
	// a failure the scheduler is dead: threads unwinding through it are
	// let through without scheduling.
	failure *resilience.Report
}

type detThreadState uint8

const (
	detReady detThreadState = iota
	detRunning
	detBlocked
	detDone
)

// detState is a thread's scheduler state, reached through Thread.det.
type detState struct {
	st      detThreadState
	attempt func() bool // pending try-operation while blocked
	co      coro
}

func newDetSched(seed int64) *detSched {
	return newDetSchedChooser(rngChooser{rng: rand.New(rand.NewSource(seed))})
}

func newDetSchedChooser(c Chooser) *detSched {
	pa, _ := c.(PreemptAware)
	return &detSched{choose: c, preempt: pa, began: time.Now()}
}

// fail records the first structured failure report and unwinds the
// calling thread with the report as the panic value. The thread's
// barrier (threadBody) recovers it; with no successor recorded, the driver
// returns once the thread has unwound, and the remaining suspended
// threads are abandoned — the run is over.
func (s *detSched) fail(r *resilience.Report) {
	if s.failure == nil {
		s.failure = r
	}
	panic(s.failure)
}

// start registers body as a ready thread; it first runs when the driver
// resumes it.
func (s *detSched) start(t *Thread, body func()) {
	t.det = &detState{st: detReady}
	t.det.co.init(body)
	s.order = append(s.order, t)
}

// run is the driver loop. The main thread is born running. A failure
// is noted on the runtime even when the thread it unwound swallowed
// the report.
func (s *detSched) run(main *Thread, body func()) {
	s.start(main, body)
	main.det.st = detRunning
	for t := main; t != nil; t = s.next {
		s.next = nil
		t.det.co.resume()
	}
	if s.failure != nil {
		main.rt.noteFailure(s.failure)
	}
}

// switchTo makes next the running thread and suspends t until the
// driver resumes it.
func (s *detSched) switchTo(t, next *Thread) {
	next.det.st = detRunning
	s.next = next
	t.det.co.suspend(struct{}{})
}

func (s *detSched) yield(t *Thread) {
	if s.failure != nil {
		// The run already failed; t is unwinding through deferred
		// cleanup. Scheduling is over — let it proceed.
		return
	}
	next := s.pick(t)
	if next == t {
		return
	}
	t.det.st = detReady
	s.switchTo(t, next)
}

func (s *detSched) exec(t *Thread, attempt func() bool) {
	// The running thread is exclusive: try directly.
	if attempt() {
		return
	}
	if s.failure != nil {
		// Unwinding after a failure and the attempt cannot succeed
		// (nobody will ever change state): re-raise the report so the
		// unwind continues to the recover barrier.
		s.fail(s.failure)
	}
	self := t.det
	self.st = detBlocked
	self.attempt = attempt
	next := s.pick(t)
	if next == nil {
		s.fail(s.deadlockReport())
	}
	if next == t {
		// pick retried our attempt and it succeeded (state changed by a
		// concurrent effect applied during selection); nothing to wait
		// for.
		self.st = detRunning
		return
	}
	s.switchTo(t, next)
	// Resumed only after pick ran attempt successfully on our behalf.
}

// pick chooses the next thread to run, including t itself. Blocked
// candidates have their attempt retried; a successful attempt applies
// its effect and unblocks the thread. The pool is ordered with the
// current thread first when it is still runnable, so choice 0 always
// means "do not preempt".
func (s *detSched) pick(t *Thread) *Thread {
	pool := s.pool[:0]
	currentRunnable := t.det.st == detRunning
	if currentRunnable {
		pool = append(pool, t)
	}
	for _, u := range s.order {
		if u.det.st == detReady && u != t {
			pool = append(pool, u)
		}
	}
	// Blocked threads join the candidate pool; their attempt decides at
	// selection time.
	for _, u := range s.order {
		if u.det.st == detBlocked {
			pool = append(pool, u)
		}
	}
	s.pool = pool
	for len(pool) > 0 {
		var i int
		if s.preempt != nil {
			i = s.preempt.ChoosePreempt(len(pool), currentRunnable)
		} else {
			i = s.choose.Choose(len(pool))
		}
		u := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		if currentRunnable && i == 0 {
			// The running current thread continues; it is always viable.
			return u
		}
		if i == 0 {
			currentRunnable = false // any retry round is a forced switch
		}
		st := u.det
		if st.st == detBlocked {
			// This covers a blocked caller selecting itself: its pending
			// attempt must hold before it may continue.
			if st.attempt() {
				st.attempt = nil
				st.st = detReady
				return u
			}
			continue
		}
		return u
	}
	return nil
}

// deadlockReport builds the structured report: every blocked thread and
// the monitors it holds.
func (s *detSched) deadlockReport() *resilience.Report {
	r := &resilience.Report{Kind: resilience.Deadlock, Elapsed: time.Since(s.began)}
	for _, u := range s.order {
		if u.det.st != detBlocked {
			continue
		}
		ts := resilience.ThreadState{Thread: u.ID().String()}
		for _, o := range u.heldMons {
			ts.Held = append(ts.Held, o.String())
		}
		r.Blocked = append(r.Blocked, ts)
	}
	return r
}

// exited retires t and records its successor; the driver resumes it
// once t's coroutine returns. The last thread to exit records none,
// which ends the run.
func (s *detSched) exited(t *Thread) {
	t.det.st = detDone
	t.terminated = true
	s.order = slices.DeleteFunc(s.order, func(u *Thread) bool { return u == t })
	if s.failure != nil || len(s.order) == 0 {
		// Post-failure unwind, or the run is complete: no scheduling
		// left to do.
		return
	}
	next := s.pick(t)
	if next == nil {
		s.fail(s.deadlockReport())
	}
	next.det.st = detRunning
	s.next = next
}
