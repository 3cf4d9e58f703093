package jrt

import (
	"maps"
	"sync/atomic"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
)

// Guarded wraps a trace-level detector with the panic-isolation barrier
// the optimized engine has built in: a panicking check quarantines the
// offending variable (it is never checked again) instead of crashing
// the monitored program. Use it for the serialized detectors
// (vectorclock, eraser, basic) as Serialize(Guard(det, policy)) —
// *core.Engine enforces the same policy internally and does not need
// wrapping. Like any detect.Detector it assumes a single caller; the
// Serialize adapter's mutex provides that.
type Guarded struct {
	inner       detect.Detector
	policy      resilience.ErrorPolicy
	quarantined map[event.Variable]bool

	panics      atomic.Uint64
	varsDropped atomic.Uint64
}

// Guard wraps det with panic isolation under the given policy.
func Guard(det detect.Detector, policy resilience.ErrorPolicy) *Guarded {
	return &Guarded{inner: det, policy: policy, quarantined: make(map[event.Variable]bool)}
}

// Name implements detect.Detector.
func (g *Guarded) Name() string { return g.inner.Name() }

// GuardStats returns the number of panics recovered and variables
// quarantined so far.
func (g *Guarded) GuardStats() (panics, quarantined uint64) {
	return g.panics.Load(), g.varsDropped.Load()
}

// Step implements detect.Detector. A read or write of a quarantined
// variable is skipped. A panic in the inner detector is recovered (Abort
// re-raises) and blamed on the action's variables: a read or write
// quarantines its variable; a commit cannot be attributed to a single
// variable, so its whole read and write set is quarantined —
// conservative, but a commit is one detector step; a sync action has no
// variable to blame and is only counted. Allocation makes the object's
// fields fresh variables, so their quarantine is lifted (mirroring the
// engine's rule-8 reset).
func (g *Guarded) Step(a event.Action) (races []detect.Race) {
	switch a.Kind {
	case event.KindRead, event.KindWrite:
		if g.quarantined[a.Variable()] {
			return nil
		}
	case event.KindAlloc:
		maps.DeleteFunc(g.quarantined, func(v event.Variable, _ bool) bool { return v.Obj == a.Obj })
	}
	defer func() {
		if r := recover(); r != nil {
			if g.policy == resilience.Abort {
				panic(r)
			}
			g.panics.Add(1)
			switch a.Kind {
			case event.KindRead, event.KindWrite:
				g.quarantine(a.Variable())
			case event.KindCommit:
				g.quarantine(a.Reads...)
				g.quarantine(a.Writes...)
			}
			races = nil
		}
	}()
	return g.inner.Step(a)
}

func (g *Guarded) quarantine(vars ...event.Variable) {
	for _, v := range vars {
		if !g.quarantined[v] {
			g.quarantined[v] = true
			g.varsDropped.Add(1)
		}
	}
}
