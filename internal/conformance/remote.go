package conformance

import (
	"fmt"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// Backend runs a trace through an external detector — typically a
// goldilocksd session over TCP — and returns its verdicts. Race
// positions must be global linearization indices, so the keys are
// directly comparable to an in-process run.
type Backend func(tr *event.Trace) (BackendResult, error)

// BackendResult is what an external backend reports for one trace.
type BackendResult struct {
	// Races are the verdicts, with global linearization positions.
	Races []detect.Race
	// RuleFires are the rule-fire counts (indexed 1..obs.NumRules),
	// when the backend exposes them.
	RuleFires [obs.NumRules + 1]uint64
	// HasRuleFires reports whether RuleFires was populated.
	HasRuleFires bool
}

// CheckBackend extends the differential matrix across a process
// boundary: it runs tr through the executable specification in-process
// and through the external backend, and reports a divergence unless the
// verdict sets — and, when exposed, the Figure 5 rule-fire counts — are
// identical. This is how the harness proves daemon verdicts ≡
// in-process verdicts (ISSUE 5 acceptance).
func CheckBackend(name string, backend Backend, tr *event.Trace) *Divergence {
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Backend: name, Detail: fmt.Sprintf(format, args...), Trace: tr}
	}
	if err := tr.Validate(); err != nil {
		return fail("invalid trace: %v", err)
	}
	spec := core.NewSpecEngine()
	specKeys := raceKeys(detect.RunTrace(spec, tr))
	specFires := spec.RuleFires()

	got, err := backend(tr)
	if err != nil {
		return fail("backend error: %v", err)
	}
	if keys := raceKeys(got.Races); !equalKeys(keys, specKeys) {
		return fail("races %v, spec %v", keys, specKeys)
	}
	if got.HasRuleFires && got.RuleFires != specFires {
		return fail("rule fires %v, spec %v", got.RuleFires, specFires)
	}
	return nil
}
