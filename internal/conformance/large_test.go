package conformance

import (
	"math/rand"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// largeThreads is the thread count of largeLocksetTrace: past 64, so
// fork edges alone carry a lockset past 64 thread elements.
const largeThreads = 72

// largeTid numbers the k-th thread (k from 0) of largeLocksetTrace. The
// ids straddle 4096, so the walked locksets keep thread ids both in
// and outside the optimized lockset's bitset.
func largeTid(k int) event.Tid {
	if k < largeThreads/2 {
		return event.Tid(1 + k)
	}
	return event.Tid(4096 - largeThreads/4 + k - largeThreads/2)
}

// largeVar is the i-th variable of largeLocksetTrace: the first four
// are written once, before the forks; the next 160 are the pool the
// threads share.
func largeVar(i int) event.Variable {
	if i < 4 {
		return event.Variable{Obj: 5, Field: event.FieldID(i)}
	}
	return event.Variable{Obj: event.Addr(10 + (i-4)/4), Field: event.FieldID(i % 4)}
}

// largePool draws a variable of the shared pool.
func largePool(rng *rand.Rand) event.Variable { return largeVar(4 + rng.Intn(160)) }

// largeLocksetTrace is a linearization whose locksets grow past 64
// elements. The first thread writes four variables and then forks 71
// threads: rule 6 adds each child to those variables' locksets, and no
// later access resets them. The threads then mix 36-variable commits
// (rule 9 adds R ∪ W to every lockset holding the committer),
// lock-protected and unprotected plain accesses and volatile handoffs,
// and the first thread joins them all. Generated traces stay far below
// this size.
func largeLocksetTrace(seed int64, steps int) *event.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := event.NewBuilder()
	main := largeTid(0)
	for i := 0; i < 4; i++ {
		v := largeVar(i)
		b.Write(main, v.Obj, v.Field)
	}
	for k := 1; k < largeThreads; k++ {
		b.Fork(main, largeTid(k))
	}
	for step := 0; step < steps; step++ {
		t := largeTid(rng.Intn(largeThreads))
		v := largePool(rng)
		switch r := rng.Intn(10); {
		case r < 5:
			var reads, writes []event.Variable
			for _, i := range rng.Perm(160)[:36] {
				if rng.Intn(2) == 0 {
					reads = append(reads, largeVar(4+i))
				} else {
					writes = append(writes, largeVar(4+i))
				}
			}
			b.Commit(t, reads, writes)
		case r < 7:
			l := event.Addr(1 + rng.Intn(2))
			b.Acquire(t, l).Write(t, v.Obj, v.Field).Release(t, l)
		case r < 8:
			b.Read(t, v.Obj, v.Field)
		case r < 9:
			b.Write(t, v.Obj, v.Field)
		default:
			if rng.Intn(2) == 0 {
				b.VolatileWrite(t, 3, 0)
			} else {
				b.VolatileRead(t, 3, 0)
			}
		}
	}
	for k := 1; k < largeThreads; k++ {
		b.Join(main, largeTid(k))
	}
	return b.Trace()
}

// TestMatrixOnLargeLocksets runs traces with 72 threads and 36-variable
// commits through the full matrix, so the optimized lockset's large
// representation is judged against the spec and the happens-before
// oracle, and checks that the traces do reach it: some lockset holds
// more than 64 threads and some more than 64 data variables.
func TestMatrixOnLargeLocksets(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		tr := largeLocksetTrace(seed, 300)
		res := Run(tr)
		if res.Div != nil {
			t.Fatalf("seed %d: %v", seed, res.Div)
		}
		t.Logf("seed %d: %d races", seed, res.Races)
		spec := core.NewSpecEngine()
		detect.RunTrace(spec, tr)
		maxThreads, maxVars := 0, 0
		for i := 0; i < 4+160; i++ {
			ls := spec.WriteLockset(largeVar(i))
			if ls == nil {
				continue
			}
			threads, vars := 0, 0
			for _, e := range ls.Elems() {
				switch e.Kind {
				case core.ElemThread:
					threads++
				case core.ElemVar:
					vars++
				}
			}
			maxThreads, maxVars = max(maxThreads, threads), max(maxVars, vars)
		}
		if maxThreads <= 64 || maxVars <= 64 {
			t.Fatalf("seed %d: largest lockset holds %d threads and %d variables, want both above 64",
				seed, maxThreads, maxVars)
		}
	}
}
