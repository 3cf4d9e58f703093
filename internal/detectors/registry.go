// Package detectors is the one registry of race backends: every CLI,
// benchmark table, conformance check and example builds its detectors
// from this table, so all of them compare the same set under the same
// names. The subpackages hold the lockset baselines and the
// serializability checker.
package detectors

import (
	"strings"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/basic"
	"goldilocks/internal/detectors/eraser"
	"goldilocks/internal/hb"
)

// Precision says what a backend's verdicts are checked against
// (Section 4.1's precision argument, made executable by conformance).
type Precision uint8

const (
	Exact       Precision = iota // exactly the reference's races, at every position
	Reference                    // the executable specification; runtime entry points skip it
	FirstRace                    // agrees with the happens-before oracle up to the first race
	Approximate                  // lockset discipline: false alarms and misses; only determinism checks
)

// Entry is one race backend.
type Entry struct {
	Name      string
	Precision Precision
	// New builds a fresh detector. opts is read only by the goldilocks
	// engine.
	New func(opts core.Options) detect.Detector
}

var registry = []Entry{
	{"goldilocks", Exact, func(opts core.Options) detect.Detector { return core.NewEngine(opts) }},
	{"spec", Reference, func(core.Options) detect.Detector { return core.NewSpecEngine() }},
	{"vectorclock", FirstRace, func(core.Options) detect.Detector { return hb.NewDetector() }},
	{"eraser", Approximate, func(core.Options) detect.Detector { return eraser.New() }},
	{"basic", Approximate, func(core.Options) detect.Detector { return basic.New() }},
}

// All returns every backend in table order.
func All() []Entry { return registry }

// Runtime returns the backends a managed runtime runs programs under:
// all but the reference.
func Runtime() []Entry {
	var out []Entry
	for _, e := range registry {
		if e.Precision != Reference {
			out = append(out, e)
		}
	}
	return out
}

// Lookup finds the backend called name among entries.
func Lookup(entries []Entry, name string) (Entry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the entries' names, comma-separated, for flag help and
// usage errors.
func Names(entries []Entry) string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}
