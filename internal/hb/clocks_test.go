package hb

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"goldilocks/internal/event"
)

func TestJoinLessEq(t *testing.T) {
	a, b := vc{1: 3}, vc{2: 5}
	if a.lessEq(b) || b.lessEq(a) {
		t.Error("disjoint clocks should be incomparable")
	}
	j := maps.Clone(a)
	j.join(b)
	if !a.lessEq(j) || !b.lessEq(j) {
		t.Error("join is not an upper bound")
	}
	if j[1] != 3 || j[2] != 5 {
		t.Error("join lost components")
	}
}

func TestEpoch(t *testing.T) {
	var e epoch
	c := vc{}
	if !e.lessEq(c) {
		t.Error("zero epoch must precede everything")
	}
	e = epoch{tid: 1, time: 2}
	if e.lessEq(c) {
		t.Error("epoch 2@T1 precedes empty clock")
	}
	c[1] = 2
	if !e.lessEq(c) {
		t.Error("epoch 2@T1 should precede [T1:2]")
	}
}

// randomVC builds a clock from fuzz input.
func randomVC(rng *rand.Rand) vc {
	v := vc{}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		v[event.Tid(1+rng.Intn(4))] = uint64(1 + rng.Intn(8))
	}
	return v
}

func equal(a, b vc) bool { return a.lessEq(b) && b.lessEq(a) }

func TestQuickJoinProperties(t *testing.T) {
	// Join is a least upper bound: commutative, associative, idempotent,
	// and monotone w.r.t. lessEq.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomVC(rng), randomVC(rng), randomVC(rng)

		ab := maps.Clone(a)
		ab.join(b)
		ba := maps.Clone(b)
		ba.join(a)
		if !equal(ab, ba) {
			return false
		}

		abc1 := maps.Clone(ab)
		abc1.join(c)
		bc := maps.Clone(b)
		bc.join(c)
		abc2 := maps.Clone(a)
		abc2.join(bc)
		if !equal(abc1, abc2) {
			return false
		}

		aa := maps.Clone(a)
		aa.join(a)
		if !equal(aa, a) {
			return false
		}
		return a.lessEq(ab) && b.lessEq(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLessEqPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomVC(rng), randomVC(rng), randomVC(rng)
		// Reflexivity.
		if !a.lessEq(a) {
			return false
		}
		// Antisymmetry: mutual lessEq means equal components.
		if a.lessEq(b) && b.lessEq(a) && !maps.Equal(a, b) {
			return false
		}
		// Transitivity.
		if a.lessEq(b) && b.lessEq(c) && !a.lessEq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
