// Package detect defines the interface shared by all dynamic race
// detectors in this repository: the generalized Goldilocks engines
// (internal/core), the vector-clock detector (internal/hb), and the
// Eraser-style baselines (internal/detectors/...).
//
// A detector consumes a linearization of an execution one action at a
// time and reports the race, if any, caused by that action. Precise
// detectors (Goldilocks, vector clock) report exactly the actual races
// as defined in Section 3 of the paper; the Eraser baselines may report
// false positives, which is the precision gap the paper quantifies.
package detect

import (
	"fmt"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// Race describes a data race detected at an access. Pos is the index in
// the linearization of the access that completed the race (the access a
// DataRaceException would interrupt). A race found by the runtime (jrt)
// carries it whenever the run has a total order of detector actions:
// under the deterministic scheduler, or through jrt.Record or
// jrt.Serialize's adapter. It is then the index at which a replay of
// the run's recording reports the race. Under the free scheduler with
// the engine attached directly no such order exists, and Pos is 0.
// Prev describes the earlier
// conflicting access when the detector knows it (the lockset baselines
// do not track it and leave Prev zero). Prov, when the detector supports
// it (both Goldilocks engines do), explains the verdict: the
// synchronization path examined between the two accesses and how the
// variable's lockset evolved along it.
type Race struct {
	Var     event.Variable
	Access  event.Action
	Pos     int
	Prev    event.Action
	HasPrev bool
	Prov    *obs.Provenance
}

func (r *Race) String() string {
	if r.HasPrev {
		return fmt.Sprintf("race on %v at action %d (%v), conflicts with %v", r.Var, r.Pos, r.Access, r.Prev)
	}
	return fmt.Sprintf("race on %v at action %d (%v)", r.Var, r.Pos, r.Access)
}

// Detector is an online race detector over a linearized execution.
type Detector interface {
	// Name identifies the detector in reports and benchmarks.
	Name() string
	// Step processes the next action of the linearization and returns
	// the races it causes (nil or empty when race-free). An action may
	// cause several races at once: a transaction commit checks every
	// variable in its read and write sets.
	Step(a event.Action) []Race
}

// RunTrace drives det over tr and returns every reported race in order.
func RunTrace(det Detector, tr *event.Trace) []Race {
	var out []Race
	for i := 0; i < tr.Len(); i++ {
		rs := det.Step(tr.At(i))
		for _, r := range rs {
			r.Pos = i
			out = append(out, r)
		}
	}
	return out
}

// FirstRace drives det over tr until the first race and returns it, or
// nil if the trace is race-free under det.
func FirstRace(det Detector, tr *event.Trace) *Race {
	for i := 0; i < tr.Len(); i++ {
		rs := det.Step(tr.At(i))
		if len(rs) > 0 {
			r := rs[0]
			r.Pos = i
			return &r
		}
	}
	return nil
}

// RacyVars drives det over the whole trace and returns the set of
// variables reported racy. Checking for a variable is "disabled" after
// its first race, mirroring the paper's measurement methodology.
type racySet map[event.Variable]bool

// RacyVars returns the distinct variables det reports racy on tr.
func RacyVars(det Detector, tr *event.Trace) map[event.Variable]bool {
	out := make(racySet)
	for i := 0; i < tr.Len(); i++ {
		for _, r := range det.Step(tr.At(i)) {
			out[r.Var] = true
		}
	}
	return out
}
