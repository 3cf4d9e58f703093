// Package core implements the generalized Goldilocks algorithm of
// Elmas, Qadeer, and Tasiran (PLDI 2007): a precise lockset-based
// dynamic data-race detector that distinguishes read and write accesses
// and handles software transactions as a first-class synchronization
// idiom.
//
// Two engines are provided:
//
//   - SpecEngine applies the lockset update rules of Figure 5 eagerly,
//     updating the lockset of every tracked variable at every
//     synchronization action. It is the executable specification: easy
//     to audit against the paper, and the reference the optimized
//     engine is property-tested against.
//   - Engine is the optimized implementation of Section 5 (the Kaffe
//     implementation): a synchronization event list with lazy lockset
//     evaluation, short-circuit checks, per-variable serialization,
//     reference-counted garbage collection, and partially-eager lockset
//     propagation.
//
// Both implement detect.Detector and report exactly the extended races
// of Section 3 (Theorem 1): sound and precise.
package core

import (
	"fmt"
	"sort"
	"strings"

	"goldilocks/internal/event"
)

// ElemKind discriminates lockset elements.
type ElemKind uint8

const (
	// ElemThread is a thread id t: t owns the variable.
	ElemThread ElemKind = iota + 1
	// ElemVolatile is a synchronization variable (o, v) — including lock
	// variables (o, l): acquiring the lock or reading the volatile makes
	// the acting thread an owner.
	ElemVolatile
	// ElemVar is a data variable (o', d'): accessing it inside a
	// transaction makes the acting thread an owner.
	ElemVar
	// ElemTL is the fictitious transaction lock TL: the last access was
	// performed inside a transaction.
	ElemTL
)

// Elem is one element of a lockset: a thread id, a volatile/lock
// variable, a data variable, or TL. Elem is comparable and usable as a
// map key.
type Elem struct {
	Kind  ElemKind
	Tid   event.Tid
	Obj   event.Addr
	Field event.FieldID
}

// ThreadElem returns the lockset element for thread t.
func ThreadElem(t event.Tid) Elem { return Elem{Kind: ElemThread, Tid: t} }

// VolatileElem returns the lockset element for synchronization variable v.
func VolatileElem(v event.Volatile) Elem {
	return Elem{Kind: ElemVolatile, Obj: v.Obj, Field: v.Field}
}

// LockElem returns the lockset element for the monitor lock of o.
func LockElem(o event.Addr) Elem { return VolatileElem(event.Lock(o)) }

// VarElem returns the lockset element for data variable v.
func VarElem(v event.Variable) Elem {
	return Elem{Kind: ElemVar, Obj: v.Obj, Field: v.Field}
}

// TL is the transaction-lock element.
var TL = Elem{Kind: ElemTL}

func (e Elem) String() string {
	switch e.Kind {
	case ElemThread:
		return e.Tid.String()
	case ElemVolatile:
		return event.Volatile{Obj: e.Obj, Field: e.Field}.String()
	case ElemVar:
		return event.Variable{Obj: e.Obj, Field: e.Field}.String()
	case ElemTL:
		return "TL"
	}
	return fmt.Sprintf("Elem(%d)", e.Kind)
}

// smallMax is the size up to which a lockset stays in its linear-scan
// slice representation. Locksets are small in the common case ({t},
// {t, TL}, or {t, TL} ∪ R ∪ W for a transaction of a few dozen
// variables); linear scans of a few cache lines beat hashing Elem
// structs on the hot Has/Add paths of the lockset traversals, and
// copy-on-write materialization is a memmove instead of a map rebuild.
const smallMax = 64

// Lockset is a set of lockset elements. The zero value is an empty set
// ready for use. Clone is copy-on-write: clones share the backing until
// one side mutates, which makes the per-access lockset snapshots of the
// optimized engine nearly free.
type Lockset struct {
	small  []Elem
	m      map[Elem]struct{} // non-nil once the set outgrows small
	shared bool              // backing shared with a clone; copy before mutating
}

// NewLockset returns a lockset holding the given elements.
func NewLockset(elems ...Elem) *Lockset {
	ls := &Lockset{}
	for _, e := range elems {
		ls.Add(e)
	}
	return ls
}

// Len returns the number of elements.
func (ls *Lockset) Len() int {
	if ls.m != nil {
		return len(ls.m)
	}
	return len(ls.small)
}

// Empty reports whether the set has no elements.
func (ls *Lockset) Empty() bool { return ls.Len() == 0 }

// Has reports membership of e.
func (ls *Lockset) Has(e Elem) bool {
	if ls.m != nil {
		_, ok := ls.m[e]
		return ok
	}
	for _, x := range ls.small {
		if x == e {
			return true
		}
	}
	return false
}

// HasThread reports membership of thread t.
func (ls *Lockset) HasThread(t event.Tid) bool { return ls.Has(ThreadElem(t)) }

// materialize makes the backing exclusively owned.
func (ls *Lockset) materialize() {
	if ls.m != nil {
		m2 := make(map[Elem]struct{}, len(ls.m))
		for e := range ls.m {
			m2[e] = struct{}{}
		}
		ls.m = m2
	} else if ls.small != nil {
		s2 := make([]Elem, len(ls.small))
		copy(s2, ls.small)
		ls.small = s2
	}
	ls.shared = false
}

// Add inserts e.
func (ls *Lockset) Add(e Elem) {
	if ls.Has(e) {
		return
	}
	if ls.shared {
		ls.materialize()
	}
	if ls.m != nil {
		ls.m[e] = struct{}{}
		return
	}
	if len(ls.small) < smallMax {
		ls.small = append(ls.small, e)
		return
	}
	ls.m = make(map[Elem]struct{}, len(ls.small)+1)
	for _, x := range ls.small {
		ls.m[x] = struct{}{}
	}
	ls.m[e] = struct{}{}
	ls.small = nil
}

// AddVars inserts the data-variable elements for each of vs.
func (ls *Lockset) AddVars(vs []event.Variable) {
	for _, v := range vs {
		ls.Add(VarElem(v))
	}
}

// IntersectsVars reports whether the set contains the data-variable
// element of any v in vs.
func (ls *Lockset) IntersectsVars(vs []event.Variable) bool {
	for _, v := range vs {
		if ls.Has(VarElem(v)) {
			return true
		}
	}
	return false
}

// Clone returns a copy sharing the backing until either side mutates.
func (ls *Lockset) Clone() *Lockset {
	ls.shared = true
	return &Lockset{small: ls.small, m: ls.m, shared: true}
}

// Reset empties the set and inserts the given elements, reusing the
// small backing array when it is exclusively owned.
func (ls *Lockset) Reset(elems ...Elem) {
	ls.m = nil
	if ls.shared {
		ls.small = nil
		ls.shared = false
	} else {
		ls.small = ls.small[:0]
	}
	for _, e := range elems {
		ls.Add(e)
	}
}

// Elems returns the elements in an unspecified order.
func (ls *Lockset) Elems() []Elem { return ls.appendElems(make([]Elem, 0, ls.Len())) }

// appendElems appends the elements to dst in an unspecified order.
func (ls *Lockset) appendElems(dst []Elem) []Elem {
	if ls.m != nil {
		for e := range ls.m {
			dst = append(dst, e)
		}
		return dst
	}
	return append(dst, ls.small...)
}

// Equal reports set equality.
func (ls *Lockset) Equal(other *Lockset) bool {
	if ls.Len() != other.Len() {
		return false
	}
	for _, e := range ls.Elems() {
		if !other.Has(e) {
			return false
		}
	}
	return true
}

// String renders the set deterministically, e.g. "{T1, ma.lock, TL}".
func (ls *Lockset) String() string {
	elems := ls.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = e.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
