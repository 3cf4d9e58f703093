package core

import (
	"sync"
	"sync/atomic"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// Options configures the optimized Engine. The zero value is not useful;
// start from DefaultOptions. Each toggle corresponds to an
// implementation technique of Section 5, so ablation benchmarks can
// measure its contribution. The techniques that are always on have no
// toggle: a full walk that reaches the end memoizes its lockset, the
// happens-before transitivity cache records every edge a check proves
// (until the memory governor sheds it), SC3 walks at most
// sc3MaxSegment cells, and the variable table has varShardCount
// shards.
type Options struct {
	// SC1 enables the same-thread short-circuit check.
	SC1 bool
	// SC2 enables the alock short-circuit check (a lock held by the
	// previous accessor at access time is held by the current accessor
	// now).
	SC2 bool
	// SC3 enables the two-thread filtered traversal before a full
	// lockset computation, over event-list segments of at most 512
	// cells (sc3MaxSegment).
	SC3 bool
	// XactSC enables the transactions short-circuit: two transactional
	// accesses never race.
	XactSC bool
	// Deprecated: FastPath is ignored. It switched an epoch check in
	// front of the lockset machinery that did the same work as SC1 in
	// checkHB; the field stays because existing callers set it.
	FastPath bool
	// DisableAfterRace stops checking a variable after its first race,
	// matching the paper's measurement methodology. Arrays: the caller
	// (runtime) is responsible for widening this to whole arrays.
	DisableAfterRace bool
	// GCThreshold triggers event-list garbage collection when the list
	// grows beyond this many cells. Zero disables automatic collection.
	GCThreshold int
	// GCTrimFraction is the fraction of the list that partially-eager
	// evaluation tries to free per collection (the paper trims the
	// first 10%).
	GCTrimFraction float64
	// PartialEager enables partially-eager lockset evaluation during
	// collection: Infos stuck at the head of the list have their
	// locksets advanced so the prefix can be freed.
	PartialEager bool
	// TxnSemantics selects how commits enter the synchronizes-with
	// relation (Section 3's alternative strong-atomicity
	// interpretations). The zero value is the paper's shared-variable
	// semantics.
	TxnSemantics event.TxnSemantics
	// OnError selects what the engine does when a detector check
	// panics: quarantine the offending variable (the zero value) and
	// let the monitored program continue, or abort by re-raising.
	OnError resilience.ErrorPolicy
	// MemoryBudget caps the retained event-list cells. When the list
	// exceeds it, the memory governor climbs the degradation ladder
	// (aggressive collection → cache shedding with fully-eager sweeps →
	// short-circuit-only checking) instead of letting the process OOM.
	// Zero disables the governor.
	MemoryBudget int
	// BrokenRule, when 1..12, disables that lockset update rule (the
	// nine Figure 5 rules plus the channel rules 10–12) in this engine —
	// an intentionally unsound configuration that MUST diverge from
	// SpecEngine on some trace. It exists solely for the conformance
	// mutation tests (internal/conformance), which prove the
	// differential matrix catches rule-level bugs by injecting one and
	// watching the fuzzer find and shrink a counterexample. Rule 1 (the
	// access reset) and rule 8 (alloc) are not droppable: rule 1 is the
	// install path itself, and rule 8 is unobservable on valid traces
	// (an alloc of an address with prior state fails Trace.Validate).
	BrokenRule int
	// Injector injects faults for resilience testing; nil injects
	// nothing.
	Injector *resilience.Injector
}

// DefaultOptions returns the configuration used by the paper's
// implementation: all short-circuits on, lazy evaluation with
// memoization, partially-eager collection above one million events.
func DefaultOptions() Options {
	return Options{
		SC1:            true,
		SC2:            true,
		SC3:            true,
		XactSC:         true,
		FastPath:       true,
		GCThreshold:    1 << 20,
		GCTrimFraction: 0.10,
		PartialEager:   true,
	}
}

// Stats are cumulative counters describing the work the engine did.
// They feed the short-circuit and coverage columns of Tables 1 and 2.
type Stats struct {
	AccessesChecked uint64 // data accesses (incl. transactional) checked
	PairChecks      uint64 // happens-before checks between two Infos
	SC1Hits         uint64
	SC2Hits         uint64
	SC3Hits         uint64
	XactHits        uint64
	HBCacheHits     uint64 // pair checks resolved by the transitivity cache
	// Deprecated: FastPathHits reads 0, or the count carried by a
	// restored checkpoint that recorded one; nothing increments it.
	FastPathHits   uint64
	FullWalks      uint64 // pair checks that needed a full traversal
	WalkCells      uint64 // cells visited across all traversals
	Races          uint64
	VarsTracked    uint64 // variable states created, counting each re-creation after an Alloc
	VarsFreed      uint64 // variable states dropped because their object died (Free)
	EventsEnqueued uint64
	CellsCollected uint64
	Collections    uint64
	InfosAdvanced  uint64 // partially-eager advances

	// Resilience counters (docs/ROBUSTNESS.md).
	PanicsRecovered uint64 // detector-check panics caught by the barrier
	VarsQuarantined uint64 // variables no longer checked after a panic
	GovernorRung    resilience.DegradationRung
	Escalations     uint64 // governor rung climbs
	AggressiveGCs   uint64 // rung-1 aggressive collections
	CacheSheds      uint64 // rung-2 happens-before cache sheds
	EagerSweeps     uint64 // rung-2/3 fully-eager Info sweeps
	DegradedChecks  uint64 // rung-3 checks resolved by assumption
}

// ShortCircuitRate returns the fraction of pair checks resolved by a
// short-circuit (SC1, SC2, SC3, the transactions check or the
// happens-before cache), in [0, 1]; it is the "short-circuit checks
// (%)" statistic of Table 1. Like every ratio
// helper on Stats it returns 0, not NaN, when the denominator is zero
// (an engine that checked nothing).
func (s Stats) ShortCircuitRate() float64 {
	if s.PairChecks == 0 {
		return 0
	}
	sc := s.SC1Hits + s.SC2Hits + s.SC3Hits + s.XactHits + s.HBCacheHits
	return float64(sc) / float64(s.PairChecks)
}

// FastPathRate returns FastPathHits over AccessesChecked; 0 when no
// accesses were checked.
//
// Deprecated: FastPathHits is no longer counted, so the rate reads 0.
func (s Stats) FastPathRate() float64 {
	if s.AccessesChecked == 0 {
		return 0
	}
	return float64(s.FastPathHits) / float64(s.AccessesChecked)
}

// FullWalkRate returns the fraction of pair checks that fell through to
// a full lockset computation, in [0, 1]; 0 when no checks ran.
func (s Stats) FullWalkRate() float64 {
	if s.PairChecks == 0 {
		return 0
	}
	return float64(s.FullWalks) / float64(s.PairChecks)
}

// AvgWalkCells returns the mean number of event-list cells visited per
// pair check; 0 when no checks ran.
func (s Stats) AvgWalkCells() float64 {
	if s.PairChecks == 0 {
		return 0
	}
	return float64(s.WalkCells) / float64(s.PairChecks)
}

// GCReclaimRate returns the fraction of enqueued events whose cells have
// been reclaimed, in [0, 1]; 0 when nothing was enqueued.
func (s Stats) GCReclaimRate() float64 {
	if s.EventsEnqueued == 0 {
		return 0
	}
	return float64(s.CellsCollected) / float64(s.EventsEnqueued)
}

// info is the Info record of Figure 8: metadata for the last write (or
// last read per thread) of a data variable. ls is the lockset of the
// variable just after the access, valid at list position pos; the
// lockset at any later position is obtained by applying the update rules
// to the events between pos and that position.
type info struct {
	pos    *cell
	owner  event.Tid
	ls     *Lockset
	alock  event.Addr // a lock held by owner at access time; NilAddr if none
	xact   bool
	action event.Action
	// origSeq is the list position of the access itself. pos advances
	// with memoization and partially-eager evaluation; origSeq does not,
	// so race provenance can replay the examined path from the access —
	// as long as those cells are still retained.
	origSeq uint64
	// hbAfter caches threads proven ordered after this access (guarded
	// by the variable's mutex, like the rest of the record).
	hbAfter map[event.Tid]struct{}
}

// varState is the per-variable detector state, serialized by mu (the
// KL(o,d) lock of Section 5). readsAllXact tracks whether every reader
// Info since the last write is transactional, so a transactional write
// can take the commit/commit exemption for the whole reader set in O(1)
// instead of per reader — without it, Table 3's per-access cost would
// grow with the thread count.
type varState struct {
	mu           sync.Mutex
	write        *info
	reads        map[event.Tid]*info
	readsAllXact bool
	disabled     bool
	// quarantined marks a variable whose check panicked under the
	// Quarantine policy: it is never checked again (until its object is
	// reallocated, which makes it a fresh variable).
	quarantined bool
	// ckptClean reports that the state is unchanged since the engine's
	// last Capture encoded it, so the next capture may copy those bytes.
	// Every mutation under mu clears it through Engine.markDirty, which
	// notes the variable on the first clear. It fits in the padding
	// after the flags above, and so does unlinked: varState stays 32
	// bytes.
	ckptClean bool
	// unlinked marks a state Alloc has removed from the table: a capture
	// that reaches it through the dirty list writes the variable as
	// gone.
	unlinked bool
}

// varShardCount is the number of shards the variable table is split
// into, and of hot-counter stat stripes; a variable's hash masked by
// shardIndex picks both. It must be a power of two; 64 keeps shard
// contention negligible up to far more cores than commodity hardware
// has while costing ~3 KiB of empty maps per engine.
const varShardCount = 64

// shardIndex masks a variable hash to its shard and stat stripe.
const shardIndex = varShardCount - 1

// sc3MaxSegment caps the event-list segment length SC3 will traverse;
// longer checks go straight to the full walk, whose memoized result
// advances the Info so the long segment is never rescanned.
const sc3MaxSegment = 512

// varShard is one stripe of the variable table. The shard RWMutex only
// guards the map structure; each varState carries its own mutex (the
// KL(o,d) lock), so the shard lock is held just long enough to find or
// insert the state pointer.
type varShard struct {
	mu   sync.RWMutex
	vars map[event.Addr]map[event.FieldID]*varState
}

// varHash hashes (o, d); the low bits index both the variable shard
// and the stat stripe. Fibonacci-style mixing with an xor-fold keeps
// sequentially allocated addresses (the common case: the runtime hands
// out consecutive Addrs) from clustering.
func varHash(o event.Addr, d event.FieldID) uint64 {
	h := uint64(o)*0x9E3779B97F4A7C15 + uint64(uint32(d))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h
}

// statStripe holds the per-access hot-path counters for one stripe of
// the engine. Accesses to variables in different shards update
// different stripes, so the counters stop being a point of cross-core
// cache-line contention (they were the second bottleneck after the
// global mutexes). The trailing padding rounds the struct up to four
// cache lines so adjacent stripes never share one.
type statStripe struct {
	accessesChecked atomic.Uint64
	pairChecks      atomic.Uint64
	sc1Hits         atomic.Uint64
	sc2Hits         atomic.Uint64
	sc3Hits         atomic.Uint64
	xactHits        atomic.Uint64
	hbCacheHits     atomic.Uint64
	fastPathHits    atomic.Uint64 // only a restored checkpoint's count; never incremented
	fullWalks       atomic.Uint64
	walkCells       atomic.Uint64
	races           atomic.Uint64
	degradedChecks  atomic.Uint64
	// resets counts rule 1 fires: plain accesses checked (a
	// transactional access is covered by its commit's rule 9 fire).
	resets atomic.Uint64
	// walkHits counts, per rule, the applications during lazy walks
	// that grew a lockset.
	walkHits [obs.NumRules + 1]atomic.Uint64
	_        [6]uint64
}

// threadLocks tracks the monitors one thread currently holds, for the
// alock short-circuit. Reentrant acquires are counted. Mutations
// (acquire/release) serialize on mu; readers never take it — they load
// the immutable stack snapshot published through snap, so the SC2 path
// (holds/heldLock on every pair check) is mutation-free readable.
type threadLocks struct {
	mu    sync.Mutex
	held  map[event.Addr]int
	stack []event.Addr // acquisition order; most recent last

	// snap is the published copy of stack: immutable once stored,
	// replaced wholesale whenever the set of held monitors changes
	// (reentrant acquires/releases leave it untouched).
	snap atomic.Pointer[[]event.Addr]
}

// publishLocked re-publishes the stack snapshot; caller holds tl.mu.
func (tl *threadLocks) publishLocked() {
	s := make([]event.Addr, len(tl.stack))
	copy(s, tl.stack)
	tl.snap.Store(&s)
}

// Engine is the optimized generalized-Goldilocks race detector: the
// production counterpart of SpecEngine, implementing the techniques of
// Section 5. It is safe for concurrent use, and — matching the paper's
// KL(o,d) design — data accesses serialize only per variable:
//
//   - the synchronization event list publishes its sentinel tail through
//     an atomic pointer, so the per-access position snapshot is
//     lock-free (the list mutex serializes only enqueue and trim);
//   - variable states live in a 64-way sharded table keyed by a hash of
//     (Addr, FieldID), so state lookup contends only within a shard and
//     the check itself only on that variable's own mutex;
//   - held-lock records are per thread, with an atomically published
//     stack snapshot, so the SC2 short-circuit reads them without any
//     shared lock.
//
// Synchronization actions still serialize on the event-list mutex: they
// are totally ordered in any case — that order is the extended
// synchronization order.
type Engine struct {
	opts Options
	list *syncList

	varShards [varShardCount]varShard

	locks sync.Map // event.Tid -> *threadLocks

	// chans normalizes channel operations to their conveyor-slot/closed
	// synchronization elements. chanMu is held across Normalize plus the
	// list enqueue so slot assignment order and extended-synchronization
	// order agree: the k-th send in the event list is the k-th send the
	// tracker saw. Normalization happens even in degraded mode (the list
	// is frozen but the conveyor must keep counting), and an operation
	// the tracker rejects — impossible in a valid linearization — is
	// dropped rather than crashing the monitored program.
	chanMu sync.Mutex
	chans  *event.ChanTracker

	gcMu sync.Mutex // at most one collection at a time

	// stats is striped by variable shard; Stats() sums the stripes.
	// Counters off the access hot path (collection, resilience) stay
	// single atomics below.
	stats [varShardCount]statStripe

	// walkDepth observes, per pair check that needed a traversal, the
	// event-list cells visited (SC3 filtered walk plus full walk);
	// shardContention counts variable-table lookups that found the
	// shard's read lock contended; trace is the lockset trace hook,
	// disabled until enabled through Trace.
	walkDepth       obs.Histogram
	shardContention obs.Counter
	trace           *obs.TraceHook

	varsTracked   atomic.Uint64
	varsFreed     atomic.Uint64
	collections   atomic.Uint64
	infosAdvanced atomic.Uint64

	// Resilience state: the recover barrier's counters and the memory
	// governor's ladder position. degraded mirrors rung == RungDegraded
	// as a flag cheap enough for the per-check hot path.
	panicsRecovered atomic.Uint64
	varsQuarantined atomic.Uint64
	rung            atomic.Int32
	escalations     atomic.Uint64
	aggressiveGCs   atomic.Uint64
	cacheSheds      atomic.Uint64
	eagerSweeps     atomic.Uint64
	degraded        atomic.Bool

	// ckpt is what the engine's checkpoints keep between captures.
	ckpt ckptReuse

	// dead holds the objects reported dead by Free, not yet dropped. It
	// is a pointer so that Freer can hand it out without the engine.
	dead *deadQueue
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		opts:  opts,
		list:  newSyncList(),
		chans: event.NewChanTracker(),
		dead:  &deadQueue{},
		trace: obs.NewTraceHook(4096),
	}
	for i := range e.varShards {
		e.varShards[i].vars = make(map[event.Addr]map[event.FieldID]*varState)
	}
	return e
}

// New returns an Engine with DefaultOptions.
func New() *Engine { return NewEngine(DefaultOptions()) }

// Name implements detect.Detector.
func (e *Engine) Name() string { return "goldilocks" }

// Stats returns a snapshot of the engine's counters, summing the
// per-shard hot-path stripes.
func (e *Engine) Stats() Stats {
	s := Stats{
		VarsTracked:    e.varsTracked.Load(),
		VarsFreed:      e.varsFreed.Load(),
		EventsEnqueued: e.list.enqueued.Load(),
		CellsCollected: e.list.collected.Load(),
		Collections:    e.collections.Load(),
		InfosAdvanced:  e.infosAdvanced.Load(),

		PanicsRecovered: e.panicsRecovered.Load(),
		VarsQuarantined: e.varsQuarantined.Load(),
		GovernorRung:    resilience.DegradationRung(e.rung.Load()),
		Escalations:     e.escalations.Load(),
		AggressiveGCs:   e.aggressiveGCs.Load(),
		CacheSheds:      e.cacheSheds.Load(),
		EagerSweeps:     e.eagerSweeps.Load(),
	}
	for i := range e.stats {
		st := &e.stats[i]
		s.AccessesChecked += st.accessesChecked.Load()
		s.PairChecks += st.pairChecks.Load()
		s.SC1Hits += st.sc1Hits.Load()
		s.SC2Hits += st.sc2Hits.Load()
		s.SC3Hits += st.sc3Hits.Load()
		s.XactHits += st.xactHits.Load()
		s.HBCacheHits += st.hbCacheHits.Load()
		s.FastPathHits += st.fastPathHits.Load()
		s.FullWalks += st.fullWalks.Load()
		s.WalkCells += st.walkCells.Load()
		s.Races += st.races.Load()
		s.DegradedChecks += st.degradedChecks.Load()
	}
	return s
}

// Rung returns the memory governor's current degradation rung.
func (e *Engine) Rung() resilience.DegradationRung {
	return resilience.DegradationRung(e.rung.Load())
}

// ListLen returns the current synchronization event list length
// (exposed for GC tests and monitoring).
func (e *Engine) ListLen() int { return e.list.len() }

// VarsQuarantined returns how many variables the panic facade has
// quarantined so far (exposed so the service's flight recorder can
// detect a new quarantine without paying for a full Stats snapshot).
func (e *Engine) VarsQuarantined() uint64 { return e.varsQuarantined.Load() }

// Step implements detect.Detector: it dispatches one action of a
// linearized trace to the concurrent entry points.
func (e *Engine) Step(a event.Action) []detect.Race {
	switch a.Kind {
	case event.KindRead:
		if r := e.Read(a.Thread, a.Obj, a.Field); r != nil {
			return []detect.Race{*r}
		}
	case event.KindWrite:
		if r := e.Write(a.Thread, a.Obj, a.Field); r != nil {
			return []detect.Race{*r}
		}
	case event.KindCommit:
		return e.Commit(a.Thread, a.Reads, a.Writes)
	case event.KindAlloc:
		e.Alloc(a.Thread, a.Obj)
	case event.KindTxBegin, event.KindTxEnd:
		// Region markers annotate the trace for the serializability
		// checker (internal/detectors/regiontrack). They induce no
		// happens-before edges and fire no rule, so they must not reach
		// the event list or the counters: skipping them here keeps every
		// parity invariant (stats, rule fires, checkpoints) identical to
		// the marker-free trace.
	default:
		e.Sync(a)
	}
	return nil
}

// Sync records a synchronization action (acquire, release, volatile
// read/write, fork, join, channel operation) in the event list.
func (e *Engine) Sync(a event.Action) {
	if a.Kind.IsChan() {
		e.syncChan(a)
		return
	}
	// One rule fire per synchronization action (rules 2–7, and 9 for
	// the commit enqueued by Commit), counted at the event level so the
	// spec and optimized engines agree on the same linearization.
	e.list.fire(obs.RuleOf(a.Kind))
	switch a.Kind {
	case event.KindAcquire:
		tl := e.threadLocks(a.Thread)
		tl.mu.Lock()
		tl.held[a.Obj]++
		if tl.held[a.Obj] == 1 {
			tl.stack = append(tl.stack, a.Obj)
			tl.publishLocked()
		}
		tl.mu.Unlock()
	case event.KindRelease:
		tl := e.threadLocks(a.Thread)
		tl.mu.Lock()
		if tl.held[a.Obj] > 0 {
			tl.held[a.Obj]--
			if tl.held[a.Obj] == 0 {
				delete(tl.held, a.Obj)
				for i := len(tl.stack) - 1; i >= 0; i-- {
					if tl.stack[i] == a.Obj {
						tl.stack = append(tl.stack[:i], tl.stack[i+1:]...)
						break
					}
				}
				tl.publishLocked()
			}
		}
		tl.mu.Unlock()
	}
	if e.degraded.Load() {
		// Rung 3: the event list is frozen. Lock tracking above stays
		// live (it feeds the short-circuits), but no cell is appended,
		// hard-bounding memory.
		return
	}
	n := e.list.enqueue(a)
	if e.opts.GCThreshold > 0 && n > e.opts.GCThreshold {
		e.Collect()
	}
	if e.opts.MemoryBudget > 0 && n+e.opts.Injector.Pressure() > e.opts.MemoryBudget {
		e.govern()
	}
}

// syncChan records a channel operation: the tracker rewrites it to the
// conveyor-slot (or closed) element it synchronizes on, and the
// normalized action enters the event list. chanMu spans both steps so
// tracker order and list order agree (the slot a send gets is decided
// by its position in the extended synchronization order). An operation
// the tracker rejects could not have completed in any real execution;
// the production engine drops it — losing at most a synchronization
// edge, a false-positive-only degradation — instead of crashing.
func (e *Engine) syncChan(a event.Action) {
	e.chanMu.Lock()
	defer e.chanMu.Unlock()
	na, err := e.chans.Normalize(a)
	if err != nil {
		return
	}
	e.list.fire(obs.RuleOf(na.Kind))
	if e.degraded.Load() {
		// Rung 3: the list is frozen but the conveyor kept counting above,
		// so slot assignment stays consistent if the governor ever matters
		// for replay.
		return
	}
	n := e.list.enqueue(na)
	if e.opts.GCThreshold > 0 && n > e.opts.GCThreshold {
		e.Collect()
	}
	if e.opts.MemoryBudget > 0 && n+e.opts.Injector.Pressure() > e.opts.MemoryBudget {
		e.govern()
	}
}

// threadLocks returns (creating if needed) thread t's lock record.
func (e *Engine) threadLocks(t event.Tid) *threadLocks {
	if tl, ok := e.locks.Load(t); ok {
		return tl.(*threadLocks)
	}
	tl, _ := e.locks.LoadOrStore(t, &threadLocks{held: make(map[event.Addr]int)})
	return tl.(*threadLocks)
}

// lockSnapshot returns the published held-monitor stack of t, or nil.
// It is mutation-free: neither the registry nor the record is locked.
func (e *Engine) lockSnapshot(t event.Tid) []event.Addr {
	tl, ok := e.locks.Load(t)
	if !ok {
		return nil
	}
	s := tl.(*threadLocks).snap.Load()
	if s == nil {
		return nil
	}
	return *s
}

// heldLock returns the most recently acquired lock currently held by t,
// or NilAddr.
func (e *Engine) heldLock(t event.Tid) event.Addr {
	s := e.lockSnapshot(t)
	if len(s) == 0 {
		return event.NilAddr
	}
	return s[len(s)-1]
}

// holds reports whether t currently holds the monitor of o. The scan is
// linear in t's lock-nesting depth, which is small; when t is the
// thread running the check (the SC2 case) the snapshot is exact, since
// only t itself acquires and releases t's monitors.
func (e *Engine) holds(t event.Tid, o event.Addr) bool {
	for _, a := range e.lockSnapshot(t) {
		if a == o {
			return true
		}
	}
	return false
}

// Alloc records the allocation of object o: rule 8 resets the locksets
// of all of o's fields by dropping their state. The fields of one
// object hash to different shards, so every shard is visited. The same
// pass drops the variables of the objects reported dead since the
// previous Alloc (Free). A shard is checked under its read lock and
// write-locked only when it holds state of o or of a dead object: an
// address the runtime has never handed out has no state, so most
// allocations take no write lock and stall no reader.
func (e *Engine) Alloc(_ event.Tid, o event.Addr) {
	e.list.fire(obs.RuleAlloc)
	dead := e.dead.take()
	type deadObj struct {
		o      event.Addr
		fields map[event.FieldID]*varState
	}
	var found []deadObj // the dead objects with state in this shard
	freed := 0
	for i := range e.varShards {
		sh := &e.varShards[i]
		if !sh.holdsAny(o, dead) {
			continue
		}
		found = found[:0]
		sh.mu.Lock()
		fields := sh.vars[o]
		delete(sh.vars, o)
		for _, d := range dead {
			if fs, ok := sh.vars[d]; ok {
				delete(sh.vars, d)
				found = append(found, deadObj{d, fs})
			}
		}
		sh.mu.Unlock()
		e.dropFields(o, fields)
		for _, d := range found {
			freed += e.dropFields(d.o, d.fields)
		}
	}
	if freed > 0 {
		e.varsFreed.Add(uint64(freed))
	}
}

// holdsAny reports, under the read lock, whether the shard holds state
// of o or of any of dead.
func (sh *varShard) holdsAny(o event.Addr, dead []event.Addr) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.vars[o]; ok {
		return true
	}
	for _, d := range dead {
		if _, ok := sh.vars[d]; ok {
			return true
		}
	}
	return false
}

// dropFields drops the state of the given fields of o, already removed
// from the table, and returns how many there were.
func (e *Engine) dropFields(o event.Addr, fields map[event.FieldID]*varState) int {
	for d, vs := range fields {
		vs.mu.Lock()
		vs.unlinked = true
		e.dropVar(o, d, vs)
		vs.mu.Unlock()
	}
	return len(fields)
}

// Free reports that object o has died: the program holds no reference
// to it, so it is never accessed again, and its address is never
// allocated again. Free only queues the address, so it may be called
// from any goroutine, concurrently with every other entry point. The
// next Alloc drops o's variables, on its caller's goroutine, and counts
// them in Stats.VarsFreed.
//
// A drop cannot change a verdict. A variable's state only decides
// whether a later access to that variable races, and o has no later
// access. Nor does the drop touch the event list or any other
// variable: the dropped Infos release their list positions, which only
// lets collection trim cells that no live Info needs. A free is not an
// action either: it is recorded in no trace and fires no rule, so
// replaying a trace, which never frees, reaches the same verdicts as
// the live run that freed. It is the counterpart of rule 8: an alloc
// resets an object's state at its birth, a free discards it at its
// death.
func (e *Engine) Free(o event.Addr) { e.dead.push(o) }

// Freer returns Free bound to the engine's dead-object queue alone.
// Holding it, as a runtime cleanup on every allocated object does,
// keeps the queue alive but not the engine.
func (e *Engine) Freer() func(event.Addr) { return e.dead.push }

// deadQueue collects the addresses passed to Free until the next Alloc
// takes them.
type deadQueue struct {
	mu    sync.Mutex
	addrs []event.Addr
}

func (q *deadQueue) push(o event.Addr) {
	q.mu.Lock()
	q.addrs = append(q.addrs, o)
	q.mu.Unlock()
}

// take empties the queue and returns what it held.
func (q *deadQueue) take() []event.Addr {
	q.mu.Lock()
	addrs := q.addrs
	q.addrs = nil
	q.mu.Unlock()
	return addrs
}

// stateOf returns (creating if needed) the state for variable (o, d).
func (e *Engine) stateOf(o event.Addr, d event.FieldID) *varState {
	return e.stateOfHash(o, d, varHash(o, d))
}

// stateOfHash is stateOf with the variable hash already computed (the
// access path also needs it for the stat stripe).
func (e *Engine) stateOfHash(o event.Addr, d event.FieldID, h uint64) *varState {
	sh := &e.varShards[h&shardIndex]
	if !sh.mu.TryRLock() {
		// The shard read lock was contended (a writer holds or wants it);
		// count it, then wait normally.
		e.shardContention.Inc()
		sh.mu.RLock()
	}
	fields, ok := sh.vars[o]
	if ok {
		if vs, ok := fields[d]; ok {
			sh.mu.RUnlock()
			return vs
		}
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	fields, ok = sh.vars[o]
	if !ok {
		fields = make(map[event.FieldID]*varState)
		sh.vars[o] = fields
	}
	vs, ok := fields[d]
	if !ok {
		vs = &varState{}
		fields[d] = vs
		e.varsTracked.Add(1)
		if e.ckpt.tracking.Load() {
			e.noteDirty(o, d, vs)
		}
	}
	return vs
}

// lookupState returns the state for (o, d) if it exists, without
// creating it.
func (e *Engine) lookupState(o event.Addr, d event.FieldID) *varState {
	sh := &e.varShards[varHash(o, d)&shardIndex]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fields, ok := sh.vars[o]
	if !ok {
		return nil
	}
	return fields[d]
}

// dropVar drops the state of variable (o, d); the caller holds vs.mu.
func (e *Engine) dropVar(o event.Addr, d event.FieldID, vs *varState) {
	vs.dropAll()
	e.markDirty(o, d, vs)
}

func (vs *varState) dropAll() {
	if vs.write != nil {
		vs.write.release()
		vs.write = nil
	}
	for _, in := range vs.reads {
		in.release()
	}
	vs.reads = nil
	vs.disabled = false
	vs.quarantined = false
}

func (in *info) release() { in.pos.refs.Add(-1) }
