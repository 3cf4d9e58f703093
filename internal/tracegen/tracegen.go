// Package tracegen generates random well-formed execution traces for
// property testing and benchmarking the race detectors.
//
// Generated traces respect the structural rules checked by
// event.Trace.Validate: lock acquires block on ownership, releases are
// performed by owners, forked threads act only after their fork, joined
// threads never act again. Within those rules the generator freely mixes
// lock-based, volatile-based, fork/join and transactional
// synchronization with unsynchronized accesses, so both racy and
// race-free traces are produced; detectors are expected to agree on
// which is which.
package tracegen

import (
	"math/rand"

	"goldilocks/internal/event"
)

// Config bounds the shape of generated traces.
type Config struct {
	// Steps is the number of actions to generate.
	Steps int
	// MaxThreads bounds the number of threads (including the initial
	// thread T1).
	MaxThreads int
	// Objects is the number of shared data objects; each has Fields
	// data fields.
	Objects int
	// Fields is the number of data fields per object.
	Fields int
	// Locks is the number of dedicated lock objects.
	Locks int
	// Volatiles is the number of volatile flags (fields of a globals
	// object).
	Volatiles int
	// TxnBias, in [0,1], is the probability that a generated data
	// operation is folded into a transaction commit instead of a plain
	// access pair.
	TxnBias float64
	// SyncBias, in [0,1], is the probability that a thread performs a
	// synchronization action rather than a data access at each step.
	SyncBias float64
	// SyncWeights, when non-nil, biases which synchronization action a
	// sync step performs; index with the Sync* constants. Nil keeps the
	// historical uniform choice bit-for-bit (pinned generator seeds stay
	// stable). The conformance fuzzer uses weights to steer generation
	// toward Figure 5 rules its coverage map says are under-exercised.
	SyncWeights []float64
	// Channels is the number of channel objects. Zero — the default, and
	// the only value the historical configurations used — generates no
	// channel operations and keeps pinned seeds bit-stable; positive
	// values add chmake/send/recv/close to the synchronization mix
	// (uniform over all kinds when SyncWeights is nil).
	Channels int
	// Regions, in [0,1], is the per-step probability that the acting
	// thread toggles an explicit atomic-region marker: txbegin when the
	// thread has no open region, txend otherwise. Markers feed the
	// serializability checker (internal/detectors/regiontrack) and are
	// no-ops for every race detector. Zero — the default — draws no
	// extra random numbers and keeps pinned generator seeds bit-stable.
	Regions float64
}

// Indexes into Config.SyncWeights: the synchronization action kinds a
// sync step chooses between.
const (
	SyncAcquire = iota // lock acquire (Figure 5 rule 3)
	SyncRelease        // lock release (rule 2)
	SyncVWrite         // volatile write (rule 4)
	SyncVRead          // volatile read (rule 5)
	SyncFork           // fork (rule 6)
	SyncJoin           // join (rule 7)
	SyncAlloc          // allocation (rule 8)
	// NumSyncKinds is the count of channel-free kinds: the nil-weights
	// uniform draw ranges over exactly these when Config.Channels is
	// zero, which keeps the historical pinned seeds bit-stable.
	NumSyncKinds
)

// The channel operation kinds occupy the indices after NumSyncKinds;
// they join the mix only when Config.Channels is positive.
const (
	SyncChanMake  = NumSyncKinds + iota // channel make (no rule)
	SyncChanSend                        // channel send (rule 10)
	SyncChanRecv                        // channel recv (rule 11)
	SyncChanClose                       // channel close (rule 12)
	// NumSyncKindsChan is the total kind count including channels.
	NumSyncKindsChan
)

// Default returns a configuration that produces small, densely
// interacting traces: few objects and locks, frequent handoffs — the
// regime where precise and imprecise detectors disagree most.
func Default() Config {
	return Config{
		Steps:      60,
		MaxThreads: 4,
		Objects:    3,
		Fields:     2,
		Locks:      2,
		Volatiles:  2,
		TxnBias:    0.2,
		SyncBias:   0.5,
	}
}

// CommitHeavy returns a configuration tuned for serializability
// checking: most data operations are transaction commits, and explicit
// region markers wrap multi-event spans, so the generated traces
// exercise the region graph (conflict cycles, open regions at trace
// cuts) rather than just the race rules.
func CommitHeavy() Config {
	c := Default()
	c.TxnBias = 0.6
	c.SyncBias = 0.35
	c.Regions = 0.15
	return c
}

// Object ids used by the generator: globals object is 1, data objects
// start at 10, lock objects at 100, channels at 1000.
const (
	globalsObj  event.Addr = 1
	dataObjBase event.Addr = 10
	lockObjBase event.Addr = 100
	chanObjBase event.Addr = 1000
)

type genThread struct {
	id    event.Tid
	alive bool
	held  map[event.Addr]int
}

// genChan mirrors event.ChanState so the generator only emits channel
// operations that pass Trace.Validate: a send needs buffer room on an
// open channel, a recv needs a message in flight or a closed channel.
type genChan struct {
	made   bool
	closed bool
	cap    int32
	sends  uint64
	recvs  uint64
}

func (c *genChan) width() uint64 {
	if c.cap > 0 {
		return uint64(c.cap)
	}
	return 1
}

func (c *genChan) canSend() bool { return c.made && !c.closed && c.sends-c.recvs < c.width() }
func (c *genChan) canRecv() bool { return c.made && (c.sends > c.recvs || c.closed) }

// Generate produces a well-formed trace from rng under cfg.
func Generate(rng *rand.Rand, cfg Config) *event.Trace {
	b := event.NewBuilder()
	threads := []*genThread{{id: 1, alive: true, held: map[event.Addr]int{}}}
	lockOwner := map[event.Addr]event.Tid{}
	nextTid := event.Tid(2)

	// The object pool starts with the static objects and grows with
	// fresh allocations (exercising rule 8: allocation resets
	// locksets). Allocations replace a random pool slot so later
	// accesses use the fresh object.
	pool := make([]event.Addr, cfg.Objects)
	for i := range pool {
		pool[i] = dataObjBase + event.Addr(i)
	}
	nextFresh := dataObjBase + event.Addr(cfg.Objects)

	// Channel pool (empty unless cfg.Channels > 0). pickChan scans from a
	// random start for the first channel satisfying ok, keeping the draw
	// deterministic in rng.
	chans := make([]genChan, cfg.Channels)
	pickChan := func(ok func(*genChan) bool) int {
		if len(chans) == 0 {
			return -1
		}
		start := rng.Intn(len(chans))
		for i := 0; i < len(chans); i++ {
			j := (start + i) % len(chans)
			if ok(&chans[j]) {
				return j
			}
		}
		return -1
	}

	alive := func() []*genThread {
		var out []*genThread
		for _, t := range threads {
			if t.alive {
				out = append(out, t)
			}
		}
		return out
	}

	randVar := func() event.Variable {
		o := pool[rng.Intn(len(pool))]
		f := event.FieldID(rng.Intn(cfg.Fields))
		return event.Variable{Obj: o, Field: f}
	}

	nkinds := NumSyncKinds
	if cfg.Channels > 0 {
		nkinds = NumSyncKindsChan
	}

	inRegion := map[event.Tid]bool{}

	for step := 0; step < cfg.Steps; step++ {
		live := alive()
		if len(live) == 0 {
			break
		}
		th := live[rng.Intn(len(live))]
		t := th.id

		// Region markers toggle per thread. A region left open when its
		// thread is joined (or at end of trace) is deliberate: Validate
		// is prefix-closed, and open regions are exactly what checkpoint
		// cuts and truncated streams produce.
		if cfg.Regions > 0 && rng.Float64() < cfg.Regions {
			if inRegion[t] {
				b.TxEnd(t)
			} else {
				b.TxBegin(t)
			}
			inRegion[t] = !inRegion[t]
			continue
		}

		if rng.Float64() < cfg.SyncBias {
			switch pickSync(rng, cfg.SyncWeights, nkinds) {
			case 0: // acquire a lock that is free or already ours
				l := lockObjBase + event.Addr(rng.Intn(cfg.Locks))
				if owner, held := lockOwner[l]; !held || owner == t {
					lockOwner[l] = t
					th.held[l]++
					b.Acquire(t, l)
				}
			case 1: // release the lowest-addressed held lock
				// Choosing by address, not by map iteration order, keeps
				// the trace a function of the seed.
				if l, ok := lowestHeld(th.held); ok {
					th.held[l]--
					if th.held[l] == 0 {
						delete(th.held, l)
						delete(lockOwner, l)
					}
					b.Release(t, l)
				}
			case 2: // volatile write
				if cfg.Volatiles > 0 {
					b.VolatileWrite(t, globalsObj, event.FieldID(rng.Intn(cfg.Volatiles)))
				}
			case 3: // volatile read
				if cfg.Volatiles > 0 {
					b.VolatileRead(t, globalsObj, event.FieldID(rng.Intn(cfg.Volatiles)))
				}
			case 4: // fork
				if len(threads) < cfg.MaxThreads {
					u := nextTid
					nextTid++
					threads = append(threads, &genThread{id: u, alive: true, held: map[event.Addr]int{}})
					b.Fork(t, u)
				}
			case 5: // terminate + join a peer holding no locks
				for _, peer := range threads {
					if peer.alive && peer.id != t && len(peer.held) == 0 {
						peer.alive = false
						b.Join(t, peer.id)
						break
					}
				}
			case 6: // allocate a fresh object into a random pool slot
				o := nextFresh
				nextFresh++
				pool[rng.Intn(len(pool))] = o
				b.Alloc(t, o)
			case SyncChanMake: // make an unmade channel, capacity 0..2
				if i := pickChan(func(c *genChan) bool { return !c.made }); i >= 0 {
					capacity := int32(rng.Intn(3))
					chans[i].made = true
					chans[i].cap = capacity
					b.ChanMake(t, chanObjBase+event.Addr(i), capacity)
				}
			case SyncChanSend: // send where a real send could complete
				if i := pickChan((*genChan).canSend); i >= 0 {
					chans[i].sends++
					b.ChanSend(t, chanObjBase+event.Addr(i))
				}
			case SyncChanRecv: // recv a message in flight, or drain a closed channel
				if i := pickChan((*genChan).canRecv); i >= 0 {
					if chans[i].sends > chans[i].recvs {
						chans[i].recvs++
					}
					b.ChanRecv(t, chanObjBase+event.Addr(i))
				}
			case SyncChanClose: // close a made, open channel
				if i := pickChan(func(c *genChan) bool { return c.made && !c.closed }); i >= 0 {
					chans[i].closed = true
					b.ChanClose(t, chanObjBase+event.Addr(i))
				}
			}
			continue
		}

		if rng.Float64() < cfg.TxnBias {
			// A transaction over 1..3 distinct variables.
			n := 1 + rng.Intn(3)
			seen := map[event.Variable]bool{}
			var reads, writes []event.Variable
			for i := 0; i < n; i++ {
				v := randVar()
				if seen[v] {
					continue
				}
				seen[v] = true
				if rng.Intn(2) == 0 {
					writes = append(writes, v)
				} else {
					reads = append(reads, v)
				}
			}
			if len(reads)+len(writes) > 0 {
				b.Commit(t, reads, writes)
			}
			continue
		}

		v := randVar()
		if rng.Intn(2) == 0 {
			b.Read(t, v.Obj, v.Field)
		} else {
			b.Write(t, v.Obj, v.Field)
		}
	}
	return b.Trace()
}

// lowestHeld returns the lowest lock address in held (entries are
// deleted when their count reaches zero); ok is false when it is empty.
func lowestHeld(held map[event.Addr]int) (l event.Addr, ok bool) {
	for a := range held {
		if !ok || a < l {
			l, ok = a, true
		}
	}
	return l, ok
}

// pickSync chooses a synchronization action kind among the first n:
// uniformly when weights is nil (the historical behavior — one rng.Intn
// draw), by weight otherwise. Non-positive weights exclude a kind; an
// all-non-positive slice falls back to uniform.
func pickSync(rng *rand.Rand, weights []float64, n int) int {
	if weights == nil {
		return rng.Intn(n)
	}
	total := 0.0
	for i := 0; i < n && i < len(weights); i++ {
		if weights[i] > 0 {
			total += weights[i]
		}
	}
	if total <= 0 {
		return rng.Intn(n)
	}
	x := rng.Float64() * total
	for i := 0; i < n && i < len(weights); i++ {
		if weights[i] <= 0 {
			continue
		}
		x -= weights[i]
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// FromSeed generates a trace deterministically from a seed with the
// default configuration.
func FromSeed(seed int64) *event.Trace {
	return Generate(rand.New(rand.NewSource(seed)), Default())
}

// FromSeedConfig generates a trace deterministically from a seed under
// cfg.
func FromSeedConfig(seed int64, cfg Config) *event.Trace {
	return Generate(rand.New(rand.NewSource(seed)), cfg)
}
