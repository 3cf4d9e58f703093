// Package basic implements the "most straightforward lockset algorithm"
// of Section 4.1: assume every shared variable is protected by a fixed
// set of locks, track the intersection of locks held at each access, and
// report a race the moment the intersection is empty.
//
// It exists to document the precision floor: it false-alarms on
// unprotected initialization (the very first access of Figure 6's
// execution), on lock rotation, and on every idiom Eraser's state
// machine was invented to patch.
package basic

import (
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

type varState struct {
	cand     map[event.Addr]bool // nil: not yet accessed
	reported bool
}

// Detector is the naive lockset-intersection detector.
type Detector struct {
	vars map[event.Variable]*varState
	held map[event.Tid]map[event.Addr]int
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{
		vars: make(map[event.Variable]*varState),
		held: make(map[event.Tid]map[event.Addr]int),
	}
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "basic" }

// Step implements detect.Detector.
func (d *Detector) Step(a event.Action) []detect.Race {
	switch a.Kind {
	case event.KindAcquire:
		m := d.held[a.Thread]
		if m == nil {
			m = make(map[event.Addr]int)
			d.held[a.Thread] = m
		}
		m[a.Obj]++
	case event.KindRelease:
		if m := d.held[a.Thread]; m[a.Obj] > 0 {
			m[a.Obj]--
		}
	case event.KindAlloc:
		for v := range d.vars {
			if v.Obj == a.Obj {
				delete(d.vars, v)
			}
		}
	case event.KindRead, event.KindWrite:
		if r := d.access(a.Thread, a.Variable(), a); r != nil {
			return []detect.Race{*r}
		}
	case event.KindCommit:
		var races []detect.Race
		seen := make(map[event.Variable]bool)
		for _, vs := range [][]event.Variable{a.Writes, a.Reads} {
			for _, v := range vs {
				if seen[v] {
					continue
				}
				seen[v] = true
				if r := d.access(a.Thread, v, a); r != nil {
					races = append(races, *r)
				}
			}
		}
		return races
	}
	return nil
}

func (d *Detector) access(t event.Tid, v event.Variable, a event.Action) *detect.Race {
	vs, ok := d.vars[v]
	if !ok {
		vs = &varState{}
		d.vars[v] = vs
	}
	held := make(map[event.Addr]bool)
	for l, n := range d.held[t] {
		if n > 0 {
			held[l] = true
		}
	}
	if vs.cand == nil {
		vs.cand = held
	} else {
		for l := range vs.cand {
			if !held[l] {
				delete(vs.cand, l)
			}
		}
	}
	if len(vs.cand) == 0 && !vs.reported {
		vs.reported = true
		return &detect.Race{Var: v, Access: a}
	}
	return nil
}
