// Package regiontrack implements a RegionTrack/Velodrome-style sound
// and complete conflict-serializability checker over recorded traces,
// composed with the Goldilocks race engine so one pass over a trace
// yields both verdict families: data races (delegated to an embedded
// core.Engine, so race verdicts are key-for-key identical to the
// executable specification by construction) and atomicity violations
// (the new analysis this package adds).
//
// # Regions
//
// The unit of atomicity checking is the region: a maximal sequence of
// actions by one thread that the program intends to be atomic. Regions
// come from three sources:
//
//   - txbegin/txend markers (event.KindTxBegin/KindTxEnd) delimit an
//     explicit multi-event region;
//   - with Options.LockRegions, each outermost lock-protected span
//     (from the acquire that takes a thread's held-lock count from zero
//     to the release that returns it to zero) is a region — the
//     classical Atomizer/Velodrome convention for lock-based code;
//   - every other action is its own unary region. A commit(R, W) is a
//     unary region too: it is atomic by construction, but its read and
//     write sets participate in conflict edges like any other accesses.
//
// # The region serialization graph
//
// Nodes are regions; a directed edge u -> v records that some operation
// of u is ordered before some operation of v by program order, by a
// conflict (two accesses to the same variable, at least one a write),
// by synchronization (operations on the same lock, volatile, or
// channel conflict — the observed schedule ordered them through that
// synchronization object), or by fork/join. Every edge is oriented by
// the observed linearization, so an execution is conflict-serializable
// exactly when the graph is acyclic (Velodrome's soundness and
// completeness argument): a cycle requires two regions that overlap in
// time with conflicting operations in both orders, and any cycle-free
// graph topologically sorts into an equivalent serial schedule.
//
// Cycles are detected incrementally: a new edge u -> v closes a cycle
// iff u is already reachable from v. The closing edge, the cycle
// witness, and the trace position are recorded as a Violation; the
// whole-graph Kahn verdict (Acyclic) is exposed separately so tests can
// cross-check the incremental detector against an independent
// implementation.
package regiontrack

import (
	"fmt"
	"sort"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// Options configures a Checker.
type Options struct {
	// Engine configures the embedded race-detection engine.
	Engine core.Options
	// LockRegions treats every outermost lock-protected span as an
	// atomic region, in addition to explicit txbegin/txend markers.
	// This is the mode for lock-based programs (MJ sync blocks) that
	// carry no markers.
	LockRegions bool
}

// maxViolations caps the retained violation witnesses; the total count
// keeps incrementing past the cap.
const maxViolations = 64

// DefaultOptions returns the default checker configuration.
func DefaultOptions() Options {
	return Options{Engine: core.DefaultOptions()}
}

// regionID numbers regions in creation order; 0 is never a region.
type regionID int

// region is one node of the serialization graph.
type region struct {
	ID     regionID  `json:"id"`
	Thread event.Tid `json:"t"`
	// Multi marks a marker- or lock-delimited region (it may span
	// several events and therefore participate in cycles).
	Multi bool `json:"multi,omitempty"`
	Open  bool `json:"open,omitempty"`
	Start int  `json:"start"` // trace position of the first operation
	Ops   int  `json:"ops"`   // operations observed in the region
}

func (r *region) String() string {
	kind := "op"
	if r.Multi {
		kind = "region"
	}
	return fmt.Sprintf("%s#%d(%v@%d)", kind, r.ID, r.Thread, r.Start)
}

// syncKey identifies a synchronization object for conflict tracking:
// a lock or volatile variable, or a whole channel (all operations on
// one channel conflict — message order is observable, so two regions
// exchanging positions around a send are not equivalent schedules).
type syncKey struct {
	Obj   event.Addr    `json:"o"`
	Field event.FieldID `json:"f,omitempty"`
	Chan  bool          `json:"ch,omitempty"`
}

// Violation is one detected serializability violation: the edge that
// closed a cycle in the region serialization graph, with the witness.
type Violation struct {
	// Pos is the trace position of the operation that closed the cycle.
	Pos int `json:"pos"`
	// From and To identify the closing edge From -> To.
	From regionID `json:"from"`
	To   regionID `json:"to"`
	// Cycle lists the region ids of the witness cycle in order,
	// starting at To and ending at From (the closing edge returns to
	// To).
	Cycle []regionID `json:"cycle"`
	// Threads are the distinct threads of the cycle's regions.
	Threads []event.Tid `json:"threads"`
}

func (v Violation) String() string {
	return fmt.Sprintf("serializability violation at %d: cycle %v (threads %v)", v.Pos, v.Cycle, v.Threads)
}

// Checker is the composed detector: Goldilocks races plus region
// serializability. It implements detect.Detector.
type Checker struct {
	opts Options
	eng  *core.Engine

	pos     int
	nextID  regionID
	regions map[regionID]*region

	cur       map[event.Tid]regionID // open multi-event region per thread
	lockSpan  map[event.Tid]bool     // cur region is a LockRegions span
	lockDepth map[event.Tid]int      // total held-lock count per thread
	prev      map[event.Tid]regionID // thread's most recent region
	pending   map[event.Tid][]regionID

	lastWrite map[event.Variable]regionID
	readers   map[event.Variable]map[regionID]struct{}
	syncLast  map[syncKey]regionID

	edges map[regionID]map[regionID]struct{}

	violations    []Violation
	violationsAll int
}

// New returns an empty checker.
func New(opts Options) *Checker {
	return &Checker{
		opts:      opts,
		eng:       core.NewEngine(opts.Engine),
		regions:   make(map[regionID]*region),
		cur:       make(map[event.Tid]regionID),
		lockSpan:  make(map[event.Tid]bool),
		lockDepth: make(map[event.Tid]int),
		prev:      make(map[event.Tid]regionID),
		pending:   make(map[event.Tid][]regionID),
		lastWrite: make(map[event.Variable]regionID),
		readers:   make(map[event.Variable]map[regionID]struct{}),
		syncLast:  make(map[syncKey]regionID),
		edges:     make(map[regionID]map[regionID]struct{}),
	}
}

// Name implements detect.Detector.
func (c *Checker) Name() string { return "regiontrack" }

// Engine exposes the embedded race engine (stats, rule fires).
func (c *Checker) Engine() *core.Engine { return c.eng }

// Step implements detect.Detector: the action feeds both the race
// engine and the region graph. Returned races are the engine's.
func (c *Checker) Step(a event.Action) []detect.Race {
	pos := c.pos
	c.pos++
	races := c.eng.Step(a) // markers are engine no-ops

	switch a.Kind {
	case event.KindTxBegin:
		// A marker region subsumes any lock span in progress: the
		// explicit annotation is the stronger claim of atomicity.
		c.openRegion(a.Thread, pos, false)
		return races
	case event.KindTxEnd:
		// A marker pair nested inside a LockRegions span closes nothing:
		// the enclosing lock span already claims the larger atomicity.
		if !c.lockSpan[a.Thread] {
			c.closeRegion(a.Thread)
		}
		return races
	}

	if c.opts.LockRegions && a.Kind == event.KindAcquire &&
		c.lockDepth[a.Thread] == 0 && c.cur[a.Thread] == 0 {
		c.openRegion(a.Thread, pos, true)
	}
	switch a.Kind {
	case event.KindAcquire:
		c.lockDepth[a.Thread]++
	case event.KindRelease:
		if c.lockDepth[a.Thread] > 0 {
			c.lockDepth[a.Thread]--
		}
	}

	r := c.regionFor(a.Thread, pos)
	r.Ops++
	c.observe(a, r, pos)

	if c.opts.LockRegions && a.Kind == event.KindRelease &&
		c.lockDepth[a.Thread] == 0 && c.lockSpan[a.Thread] {
		c.closeRegion(a.Thread)
	}
	return races
}

// openRegion starts a multi-event region for t. An already-open region
// is left in place for markers arriving inside a lock span: the open
// region absorbs the events either way.
func (c *Checker) openRegion(t event.Tid, pos int, lockSpan bool) {
	if c.cur[t] != 0 {
		return
	}
	r := c.newRegion(t, pos, true)
	r.Open = true
	c.cur[t] = r.ID
	c.lockSpan[t] = lockSpan
}

// closeRegion ends t's open region, if any.
func (c *Checker) closeRegion(t event.Tid) {
	if id := c.cur[t]; id != 0 {
		c.regions[id].Open = false
	}
	delete(c.cur, t)
	delete(c.lockSpan, t)
}

// regionFor returns the region the next operation of t belongs to: the
// thread's open region, or a fresh unary region.
func (c *Checker) regionFor(t event.Tid, pos int) *region {
	if id := c.cur[t]; id != 0 {
		return c.regions[id]
	}
	return c.newRegion(t, pos, false)
}

// newRegion creates a region and wires its program-order and pending
// fork edges.
func (c *Checker) newRegion(t event.Tid, pos int, multi bool) *region {
	c.nextID++
	r := &region{ID: c.nextID, Thread: t, Multi: multi, Start: pos}
	c.regions[r.ID] = r
	if p := c.prev[t]; p != 0 {
		c.addEdge(p, r.ID, pos)
	}
	for _, src := range c.pending[t] {
		c.addEdge(src, r.ID, pos)
	}
	delete(c.pending, t)
	c.prev[t] = r.ID
	return r
}

// observe adds the conflict and synchronization edges induced by one
// operation of region r.
func (c *Checker) observe(a event.Action, r *region, pos int) {
	switch a.Kind {
	case event.KindRead:
		c.readVar(a.Variable(), r.ID, pos)
	case event.KindWrite:
		c.writeVar(a.Variable(), r.ID, pos)
	case event.KindCommit:
		// R ∩ W counts as a write, matching the engines' generalization.
		written := make(map[event.Variable]bool, len(a.Writes))
		for _, v := range a.Writes {
			if !written[v] {
				written[v] = true
				c.writeVar(v, r.ID, pos)
			}
		}
		for _, v := range a.Reads {
			if !written[v] {
				c.readVar(v, r.ID, pos)
			}
		}
	case event.KindAcquire, event.KindRelease:
		c.syncOp(syncKey{Obj: a.Obj, Field: event.LockField}, r.ID, pos)
	case event.KindVolatileRead, event.KindVolatileWrite:
		c.syncOp(syncKey{Obj: a.Obj, Field: a.Field}, r.ID, pos)
	case event.KindChanMake, event.KindChanSend, event.KindChanRecv, event.KindChanClose:
		c.syncOp(syncKey{Obj: a.Obj, Chan: true}, r.ID, pos)
	case event.KindFork:
		c.pending[a.Peer] = append(c.pending[a.Peer], r.ID)
	case event.KindJoin:
		if last := c.prev[a.Peer]; last != 0 {
			c.addEdge(last, r.ID, pos)
		}
	}
}

// readVar records a read of v by region r: ordered after v's last
// writer.
func (c *Checker) readVar(v event.Variable, r regionID, pos int) {
	if lw := c.lastWrite[v]; lw != 0 && lw != r {
		c.addEdge(lw, r, pos)
	}
	rs := c.readers[v]
	if rs == nil {
		rs = make(map[regionID]struct{})
		c.readers[v] = rs
	}
	rs[r] = struct{}{}
}

// writeVar records a write of v by region r: ordered after v's last
// writer and after every reader since that write.
func (c *Checker) writeVar(v event.Variable, r regionID, pos int) {
	if lw := c.lastWrite[v]; lw != 0 && lw != r {
		c.addEdge(lw, r, pos)
	}
	// Sorted, so edge insertion order — and with it which edge closes a
	// cycle — is deterministic across runs.
	for _, reader := range sortedSet(c.readers[v]) {
		if reader != r {
			c.addEdge(reader, r, pos)
		}
	}
	delete(c.readers, v)
	c.lastWrite[v] = r
}

// sortedSet returns the ids of a region set in ascending order.
func sortedSet(set map[regionID]struct{}) []regionID {
	out := make([]regionID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// syncOp records an operation on a synchronization object: all
// operations on the same object conflict pairwise, so consecutive ones
// are edge-ordered (the transitive closure covers the rest).
func (c *Checker) syncOp(k syncKey, r regionID, pos int) {
	if last := c.syncLast[k]; last != 0 && last != r {
		c.addEdge(last, r, pos)
	}
	c.syncLast[k] = r
}

// addEdge inserts u -> v, detecting any cycle it closes. The edge is
// inserted even when it closes a cycle, so the end-of-trace Kahn
// verdict (Acyclic) agrees with the incremental one.
func (c *Checker) addEdge(u, v regionID, pos int) {
	if u == v {
		return
	}
	if _, ok := c.edges[u][v]; ok {
		return
	}
	if path := c.findPath(v, u); path != nil {
		c.violationsAll++
		if len(c.violations) < maxViolations {
			vi := Violation{Pos: pos, From: u, To: v, Cycle: path}
			seen := make(map[event.Tid]bool)
			for _, id := range path {
				if t := c.regions[id].Thread; !seen[t] {
					seen[t] = true
					vi.Threads = append(vi.Threads, t)
				}
			}
			c.violations = append(c.violations, vi)
		}
	}
	m := c.edges[u]
	if m == nil {
		m = make(map[regionID]struct{})
		c.edges[u] = m
	}
	m[v] = struct{}{}
}

// findPath returns a path from src to dst as a region-id sequence
// (inclusive of both ends), or nil if dst is unreachable.
func (c *Checker) findPath(src, dst regionID) []regionID {
	if src == dst {
		return []regionID{src}
	}
	parent := map[regionID]regionID{src: 0}
	stack := []regionID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Sorted neighbors keep the witness path deterministic (map
		// iteration order would pick a different cycle on each run).
		for _, w := range sortedSet(c.edges[u]) {
			if _, seen := parent[w]; seen {
				continue
			}
			parent[w] = u
			if w == dst {
				var path []regionID
				for at := dst; at != 0; at = parent[at] {
					path = append(path, at)
				}
				// Reverse: parent chain walks dst -> src.
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			stack = append(stack, w)
		}
	}
	return nil
}

// Serializable reports whether the trace so far is conflict-
// serializable.
func (c *Checker) Serializable() bool { return c.violationsAll == 0 }

// Violations returns the retained violation witnesses in detection
// order.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// ViolationCount returns the total number of cycle-closing edges seen,
// including ones past the retention cap.
func (c *Checker) ViolationCount() int { return c.violationsAll }

// RegionCount returns the number of regions created so far.
func (c *Checker) RegionCount() int { return len(c.regions) }

// MultiRegionCount returns how many of them are multi-event regions.
func (c *Checker) MultiRegionCount() int {
	n := 0
	for _, r := range c.regions {
		if r.Multi {
			n++
		}
	}
	return n
}

// Acyclic is the independent whole-graph verdict: Kahn's algorithm
// over the full serialization graph. It must agree with the
// incremental detector — Acyclic() == Serializable() is a checked
// invariant of the test suite.
func (c *Checker) Acyclic() bool {
	indeg := make(map[regionID]int, len(c.regions))
	for id := range c.regions {
		indeg[id] = 0
	}
	for _, outs := range c.edges {
		for v := range outs {
			indeg[v]++
		}
	}
	queue := make([]regionID, 0, len(c.regions))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for v := range c.edges[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return done == len(c.regions)
}

// Summary is the machine-readable outcome of a checker run.
type Summary struct {
	Events       int         `json:"events"`
	Regions      int         `json:"regions"`
	MultiRegions int         `json:"multi_regions"`
	Edges        int         `json:"edges"`
	Serializable bool        `json:"serializable"`
	Violations   []Violation `json:"violations,omitempty"`
	// ViolationTotal counts every cycle-closing edge, including ones
	// past the witness retention cap.
	ViolationTotal int `json:"violation_total,omitempty"`
}

// Summarize returns the current summary.
func (c *Checker) Summarize() Summary {
	edges := 0
	for _, outs := range c.edges {
		edges += len(outs)
	}
	return Summary{
		Events:         c.pos,
		Regions:        len(c.regions),
		MultiRegions:   c.MultiRegionCount(),
		Edges:          edges,
		Serializable:   c.Serializable(),
		Violations:     c.Violations(),
		ViolationTotal: c.violationsAll,
	}
}

// Check runs a fresh checker over the whole trace and returns the
// races (with positions assigned, like detect.RunTrace) and the
// serializability summary.
func Check(tr *event.Trace, opts Options) ([]detect.Race, Summary) {
	c := New(opts)
	races := detect.RunTrace(c, tr)
	return races, c.Summarize()
}

// sortedRegionIDs returns every region id ascending (stable
// serialization order for checkpoints and tests).
func (c *Checker) sortedRegionIDs() []regionID {
	ids := make([]regionID, 0, len(c.regions))
	for id := range c.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
