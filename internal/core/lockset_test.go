package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"goldilocks/internal/event"
)

// refSet is the model Lockset is checked against: a plain map.
type refSet map[Elem]struct{}

func (r refSet) clone() refSet {
	c := make(refSet, len(r))
	for e := range r {
		c[e] = struct{}{}
	}
	return c
}

func (r refSet) String() string {
	parts := make([]string, 0, len(r))
	for e := range r {
		parts = append(parts, e.String())
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// modelPair is one lockset under test with its model.
type modelPair struct {
	ls  *Lockset
	ref refSet
}

// randElem draws an element: threads on both sides of the bitset cap
// (and negative ids), TL, and volatile, lock and data variables from
// pools large enough to carry a set past smallMax and past 64.
func randElem(rng *rand.Rand) Elem {
	switch rng.Intn(8) {
	case 0, 1:
		return ThreadElem(event.Tid(rng.Intn(140)))
	case 2:
		return ThreadElem(event.Tid(tidBitsetCap - 3 + rng.Intn(6)))
	case 3:
		return ThreadElem([]event.Tid{-1, -2, 1 << 20, 1<<31 - 1}[rng.Intn(4)])
	case 4:
		return TL
	case 5:
		if rng.Intn(2) == 0 {
			return LockElem(event.Addr(1 + rng.Intn(8)))
		}
		return VolatileElem(event.Volatile{Obj: event.Addr(1 + rng.Intn(4)), Field: event.FieldID(rng.Intn(4))})
	}
	return VarElem(randVar(rng))
}

func randVar(rng *rand.Rand) event.Variable {
	return event.Variable{Obj: event.Addr(rng.Intn(40)), Field: event.FieldID(rng.Intn(4))}
}

func randVars(rng *rand.Rand) []event.Variable {
	vs := make([]event.Variable, 1+rng.Intn(30))
	for i := range vs {
		vs[i] = randVar(rng)
	}
	return vs
}

// check compares p.ls with its model through every read of the API;
// render adds String, the slowest.
func (p modelPair) check(t *testing.T, step int, op string, render bool) {
	t.Helper()
	if p.ls.Len() != len(p.ref) || p.ls.Empty() != (len(p.ref) == 0) {
		t.Fatalf("step %d (%s): Len %d, model %d", step, op, p.ls.Len(), len(p.ref))
	}
	elems := p.ls.Elems()
	if len(elems) != len(p.ref) {
		t.Fatalf("step %d (%s): %d Elems, model %d", step, op, len(elems), len(p.ref))
	}
	seen := make(refSet, len(elems))
	for _, e := range elems {
		if _, ok := p.ref[e]; !ok {
			t.Fatalf("step %d (%s): Elems has %v, model does not", step, op, e)
		}
		if _, dup := seen[e]; dup {
			t.Fatalf("step %d (%s): Elems repeats %v", step, op, e)
		}
		seen[e] = struct{}{}
		if !p.ls.Has(e) {
			t.Fatalf("step %d (%s): Has(%v) false for an element Elems listed", step, op, e)
		}
	}
	if !render {
		return
	}
	if got, want := p.ls.String(), p.ref.String(); got != want {
		t.Fatalf("step %d (%s): String %s, model %s", step, op, got, want)
	}
}

// TestLocksetModel runs random sequences of every Lockset operation
// against a map model. Clones are mutated on either side, sets grow
// past smallMax and 64 elements and are Reset below them again, and
// thread ids fall on both sides of the bitset cap. The spec and the
// optimized engine share Lockset, so their differential tests cannot
// see a bug here; this test and the happens-before oracle can.
func TestLocksetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var grewPast64, resetBig, probedFar int
	for seq := 0; seq < 40; seq++ {
		pairs := []modelPair{{ls: NewLockset(), ref: refSet{}}}
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(pairs))
			p := &pairs[i]
			var op string
			switch k := rng.Intn(20); {
			case k < 6:
				op = "Add"
				e := randElem(rng)
				p.ls.Add(e)
				p.ref[e] = struct{}{}
			case k < 9:
				op = "AddVars"
				vs := randVars(rng)
				p.ls.AddVars(vs)
				for _, v := range vs {
					p.ref[VarElem(v)] = struct{}{}
				}
			case k < 11:
				op = "Has"
				e := randElem(rng)
				if e.Kind == ElemThread && (e.Tid < 0 || e.Tid >= tidBitsetCap) {
					probedFar++
				}
				_, want := p.ref[e]
				if p.ls.Has(e) != want {
					t.Fatalf("seq %d step %d: Has(%v) = %v, model %v", seq, step, e, !want, want)
				}
				if e.Kind == ElemThread && p.ls.HasThread(e.Tid) != want {
					t.Fatalf("seq %d step %d: HasThread(%v) = %v, model %v", seq, step, e.Tid, !want, want)
				}
			case k < 13:
				op = "IntersectsVars"
				vs := randVars(rng)
				want := false
				for _, v := range vs {
					if _, ok := p.ref[VarElem(v)]; ok {
						want = true
					}
				}
				if p.ls.IntersectsVars(vs) != want {
					t.Fatalf("seq %d step %d: IntersectsVars = %v, model %v", seq, step, !want, want)
				}
			case k < 16:
				op = "Clone"
				if len(pairs) < 6 {
					pairs = append(pairs, modelPair{ls: p.ls.Clone(), ref: p.ref.clone()})
					p = &pairs[i]
				}
			case k < 17:
				op = "Reset"
				if p.ls.Len() > 64 {
					resetBig++
				}
				var es []Elem
				for n := rng.Intn(4); n > 0; n-- {
					es = append(es, randElem(rng))
				}
				p.ls.Reset(es...)
				p.ref = refSet{}
				for _, e := range es {
					p.ref[e] = struct{}{}
				}
			case k < 18:
				op = "Equal"
				var es []Elem
				for e := range p.ref {
					es = append(es, e)
				}
				other := NewLockset(es...)
				if !p.ls.Equal(other) || !other.Equal(p.ls) {
					t.Fatalf("seq %d step %d: Equal false against a rebuilt copy", seq, step)
				}
				other.Add(ThreadElem(1 << 25))
				if _, in := p.ref[ThreadElem(1<<25)]; !in && p.ls.Equal(other) {
					t.Fatalf("seq %d step %d: Equal true against a larger set", seq, step)
				}
			default:
				op = "txnLockset"
				u := randElem(rng)
				if u.Kind != ElemThread {
					u = ThreadElem(3)
				}
				vs := randVars(rng)
				slices.SortFunc(vs, compareVars)
				vs = slices.Compact(vs)
				ls := txnLockset(u.Tid, vs)
				ref := refSet{u: {}, TL: {}}
				for _, v := range vs {
					ref[VarElem(v)] = struct{}{}
				}
				pairs = append(pairs, modelPair{ls: ls, ref: ref})
				p = &pairs[len(pairs)-1]
				if len(pairs) > 6 {
					pairs = slices.Delete(pairs, 0, 1)
					p = &pairs[len(pairs)-1]
				}
			}
			if len(p.ref) > 64 {
				grewPast64++
			}
			for j := range pairs {
				pairs[j].check(t, step, op, &pairs[j] == p)
			}
		}
	}
	if grewPast64 == 0 || resetBig == 0 || probedFar == 0 {
		t.Fatalf("sequences did not reach the large representation: past 64 %d, big resets %d, far-thread probes %d",
			grewPast64, resetBig, probedFar)
	}
}
