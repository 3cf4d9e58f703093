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
	"maps"
	"math/bits"
	"slices"
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

// canonical reports whether e is an element the constructors above
// build: a known kind carrying only the fields that kind uses. The
// large lockset representation keeps each kind by those fields alone,
// so only canonical elements may enter a set.
func (e Elem) canonical() bool {
	switch e.Kind {
	case ElemThread:
		return e.Obj == event.NilAddr && e.Field == 0
	case ElemVolatile, ElemVar:
		return e.Tid == event.NoTid
	case ElemTL:
		return e == TL
	}
	return false
}

// smallMax is the size up to which a lockset stays in its linear-scan
// slice representation. The common sets ({t}, {t, TL}, a small
// transaction's {t, TL} ∪ R ∪ W) fit, so the per-access sets cost one
// short slice; past it a set is typed by element kind (bigSet), where
// every probe is a bit test or one 16-byte-key hash.
const smallMax = 16

// tidBitsetCap bounds the thread ids a large set keeps in its bitset:
// ids in [0, tidBitsetCap) take one bit each, others go to a map, so a
// thread id chosen by a client cannot size an allocation (the bitset
// grows to at most tidBitsetCap/8 bytes).
const tidBitsetCap = 4096

// varKey is a volatile, lock or data variable (o, f) packed into 16
// bytes without padding: map hashing and equality take the runtime's
// 128-bit memory fast path rather than a field-wise hash of a padded
// 24-byte Elem.
type varKey struct {
	obj   event.Addr
	field int64
}

func keyOf(o event.Addr, f event.FieldID) varKey { return varKey{o, int64(f)} }

// bigSet is the large lockset representation, one component per
// element kind, each allocated on first use. A header may share its
// components with clones: own marks the ones it owns exclusively, and
// any other is copied before its first mutation, so a clone that only
// gains a thread copies the bitset and not the variable maps.
type bigSet struct {
	threads  []uint64               // bit t set: thread t, for 0 <= t < tidBitsetCap
	nthreads int                    // bits set in threads
	farTids  map[event.Tid]struct{} // thread ids outside the bitset
	syncs    map[varKey]struct{}    // volatile and lock elements
	vars     map[varKey]struct{}    // data variables
	tl       bool
	own      uint8
}

// Component bits of bigSet.own.
const (
	ownThreads uint8 = 1 << iota
	ownFarTids
	ownSyncs
	ownVars
	ownAll = ownThreads | ownFarTids | ownSyncs | ownVars
)

func (b *bigSet) len() int {
	n := b.nthreads + len(b.farTids) + len(b.syncs) + len(b.vars)
	if b.tl {
		n++
	}
	return n
}

func (b *bigSet) hasThread(t event.Tid) bool {
	if t >= 0 && t < tidBitsetCap {
		w := int(t) >> 6
		return w < len(b.threads) && b.threads[w]&(1<<(uint(t)&63)) != 0
	}
	_, ok := b.farTids[t]
	return ok
}

func (b *bigSet) has(e Elem) bool {
	switch e.Kind {
	case ElemThread:
		return b.hasThread(e.Tid)
	case ElemTL:
		return b.tl
	case ElemVar:
		_, ok := b.vars[keyOf(e.Obj, e.Field)]
		return ok
	case ElemVolatile:
		_, ok := b.syncs[keyOf(e.Obj, e.Field)]
		return ok
	}
	return false
}

// add inserts the canonical element e.
func (b *bigSet) add(e Elem) {
	switch e.Kind {
	case ElemThread:
		b.addThread(e.Tid)
	case ElemTL:
		b.tl = true
	case ElemVar:
		addKey(&b.vars, &b.own, ownVars, keyOf(e.Obj, e.Field))
	case ElemVolatile:
		addKey(&b.syncs, &b.own, ownSyncs, keyOf(e.Obj, e.Field))
	}
}

func (b *bigSet) addThread(t event.Tid) {
	if t < 0 || t >= tidBitsetCap {
		if _, ok := b.farTids[t]; ok {
			return
		}
		if b.own&ownFarTids == 0 || b.farTids == nil {
			b.farTids = cloneMap(b.farTids)
			b.own |= ownFarTids
		}
		b.farTids[t] = struct{}{}
		return
	}
	w, bit := int(t)>>6, uint64(1)<<(uint(t)&63)
	if w < len(b.threads) && b.threads[w]&bit != 0 {
		return
	}
	if b.own&ownThreads == 0 || w >= len(b.threads) {
		words := make([]uint64, max(len(b.threads), w+1))
		copy(words, b.threads)
		b.threads = words
		b.own |= ownThreads
	}
	b.threads[w] |= bit
	b.nthreads++
}

// addKey inserts k into the component *m, first creating it or copying
// it if shared (own lacks bit), unless k is already there.
func addKey(m *map[varKey]struct{}, own *uint8, bit uint8, k varKey) {
	if *own&bit == 0 || *m == nil {
		if _, ok := (*m)[k]; ok {
			return
		}
		*m = cloneMap(*m)
		*own |= bit
	}
	(*m)[k] = struct{}{}
}

// cloneMap returns an exclusively owned copy of m, a new map if m is nil.
func cloneMap[K comparable](m map[K]struct{}) map[K]struct{} {
	if m == nil {
		return make(map[K]struct{})
	}
	return maps.Clone(m)
}

// Lockset is a set of lockset elements, built by the constructors above.
// The zero value is an empty set ready for use. Clone is copy-on-write:
// clones share the backing until one side mutates, which makes the
// per-access lockset snapshots of the optimized engine nearly free.
type Lockset struct {
	small  []Elem
	big    *bigSet // non-nil once the set outgrows small
	shared bool    // backing shared with a clone; copy before mutating
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
	if ls.big != nil {
		return ls.big.len()
	}
	return len(ls.small)
}

// Empty reports whether the set has no elements.
func (ls *Lockset) Empty() bool { return ls.Len() == 0 }

// Has reports membership of e.
func (ls *Lockset) Has(e Elem) bool {
	if ls.big != nil {
		return ls.big.has(e)
	}
	for _, x := range ls.small {
		if x == e {
			return true
		}
	}
	return false
}

// HasThread reports membership of thread t.
func (ls *Lockset) HasThread(t event.Tid) bool {
	if ls.big != nil {
		return ls.big.hasThread(t)
	}
	return ls.Has(ThreadElem(t))
}

// materialize makes the backing exclusively owned: the small slice is
// copied, a large set's header is copied and its components are left to
// be copied on first mutation.
func (ls *Lockset) materialize() {
	if ls.big != nil {
		b := *ls.big
		b.own = 0
		ls.big = &b
	} else if ls.small != nil {
		ls.small = slices.Clone(ls.small)
	}
	ls.shared = false
}

// txnLockset returns {t, TL} ∪ vs for distinct variables vs, rule 9's
// lockset just after a commit, in O(|vs|).
func txnLockset(t event.Tid, vs []event.Variable) *Lockset {
	if 2+len(vs) <= smallMax {
		s := make([]Elem, 2, 2+len(vs))
		s[0], s[1] = ThreadElem(t), TL
		for _, v := range vs {
			s = append(s, VarElem(v))
		}
		return &Lockset{small: s}
	}
	b := &bigSet{tl: true, vars: make(map[varKey]struct{}, len(vs)), own: ownAll}
	b.addThread(t)
	for _, v := range vs {
		b.vars[keyOf(v.Obj, v.Field)] = struct{}{}
	}
	return &Lockset{big: b}
}

// Add inserts e, which must be built by the element constructors.
func (ls *Lockset) Add(e Elem) {
	if ls.Has(e) {
		return
	}
	if !e.canonical() {
		panic(fmt.Sprintf("core: lockset element %#v is not canonical", e))
	}
	if ls.shared {
		ls.materialize()
	}
	if ls.big != nil {
		ls.big.add(e)
		return
	}
	if len(ls.small) < smallMax {
		ls.small = append(ls.small, e)
		return
	}
	ls.grow()
	ls.big.add(e)
}

// grow moves a full small set, exclusively owned, into a new bigSet.
func (ls *Lockset) grow() {
	b := &bigSet{own: ownAll}
	for _, x := range ls.small {
		b.add(x)
	}
	ls.big, ls.small = b, nil
}

// AddVars inserts the data-variable elements for each of vs.
func (ls *Lockset) AddVars(vs []event.Variable) {
	for i, v := range vs {
		if ls.big != nil {
			ls.addBigVars(vs[i:])
			return
		}
		ls.Add(VarElem(v))
	}
}

// addBigVars is AddVars on a large set: one probe per variable, and a
// shared backing copied only when a variable is new.
func (ls *Lockset) addBigVars(vs []event.Variable) {
	for _, v := range vs {
		k := keyOf(v.Obj, v.Field)
		if _, ok := ls.big.vars[k]; ok {
			continue
		}
		if ls.shared {
			ls.materialize()
		}
		addKey(&ls.big.vars, &ls.big.own, ownVars, k)
	}
}

// IntersectsVars reports whether the set contains the data-variable
// element of any v in vs.
func (ls *Lockset) IntersectsVars(vs []event.Variable) bool {
	if ls.big != nil {
		if len(ls.big.vars) == 0 {
			return false
		}
		for _, v := range vs {
			if _, ok := ls.big.vars[keyOf(v.Obj, v.Field)]; ok {
				return true
			}
		}
		return false
	}
	for _, v := range vs {
		if ls.Has(VarElem(v)) {
			return true
		}
	}
	return false
}

// Clone returns a copy sharing the backing until either side mutates.
func (ls *Lockset) Clone() *Lockset {
	c := new(Lockset)
	ls.cloneInto(c)
	return c
}

// cloneInto makes dst a clone of ls, overwriting dst's header in place;
// no one but dst's owner may hold dst.
func (ls *Lockset) cloneInto(dst *Lockset) {
	ls.shared = true
	*dst = Lockset{small: ls.small, big: ls.big, shared: true}
}

// Reset empties the set and inserts the given elements, reusing the
// small backing array when it is exclusively owned.
func (ls *Lockset) Reset(elems ...Elem) {
	ls.big = nil
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
	b := ls.big
	if b == nil {
		return append(dst, ls.small...)
	}
	for w, word := range b.threads {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ThreadElem(event.Tid(w<<6+bits.TrailingZeros64(word))))
		}
	}
	for t := range b.farTids {
		dst = append(dst, ThreadElem(t))
	}
	if b.tl {
		dst = append(dst, TL)
	}
	for k := range b.syncs {
		dst = append(dst, Elem{Kind: ElemVolatile, Obj: k.obj, Field: event.FieldID(k.field)})
	}
	for k := range b.vars {
		dst = append(dst, Elem{Kind: ElemVar, Obj: k.obj, Field: event.FieldID(k.field)})
	}
	return dst
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
