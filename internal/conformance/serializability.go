package conformance

import (
	"bytes"
	"fmt"
	"reflect"

	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
)

// This file registers the RegionTrack serializability checker in the
// differential matrix. Its race side is an embedded core.Engine, so the
// race verdicts must be key-for-key (and rule-fire-for-rule-fire)
// identical to the executable specification on every trace; its
// serializability side has no second implementation to diff against, so
// it is gated by self-invariants instead: the incremental cycle
// detector must agree with an independent whole-graph Kahn pass, a
// marker-free trace without lock regions (all-unary regions) must
// always be serializable, reruns must be deterministic, and a
// checkpoint/restore cut must not move a verdict.

// RegionTrackBackend adapts the composed checker to the cross-process
// differential interface; CheckBackend also compares its engine's rule-
// fire counts against the spec engine's.
func RegionTrackBackend(opts regiontrack.Options) Backend {
	return func(tr *event.Trace) (BackendResult, error) {
		rt := regiontrack.New(opts)
		races := detect.RunTrace(rt, tr)
		return BackendResult{Races: races, RuleFires: rt.Engine().RuleFires(), HasRuleFires: true}, nil
	}
}

// CheckSerializability runs tr through the RegionTrack checker (in both
// marker-only and LockRegions modes) and verifies every serializability
// self-invariant. It returns the first divergence found, or nil.
func CheckSerializability(tr *event.Trace) *Divergence {
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Backend: "regiontrack-invariants", Detail: fmt.Sprintf(format, args...), Trace: tr}
	}
	if err := tr.Validate(); err != nil {
		return fail("invalid trace: %v", err)
	}

	hasMarkers := false
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).Kind.IsMarker() {
			hasMarkers = true
			break
		}
	}

	for _, mode := range []struct {
		name string
		lock bool
	}{{"markers", false}, {"lock-regions", true}} {
		opts := regiontrack.DefaultOptions()
		opts.LockRegions = mode.lock

		// Stepwise run: the violation count may only grow, so a
		// non-serializable prefix can never become serializable again.
		ch := regiontrack.New(opts)
		prevCount := 0
		for i := 0; i < tr.Len(); i++ {
			ch.Step(tr.At(i))
			if n := ch.ViolationCount(); n < prevCount {
				return fail("%s: violation count shrank %d -> %d at %d", mode.name, prevCount, n, i)
			} else {
				prevCount = n
			}
		}
		if ch.Acyclic() != ch.Serializable() {
			return fail("%s: Kahn acyclicity %v but incremental verdict %v",
				mode.name, ch.Acyclic(), ch.Serializable())
		}
		if !mode.lock && !hasMarkers && !ch.Serializable() {
			return fail("markers: all-unary trace judged non-serializable: %+v", ch.Summarize())
		}

		// Determinism: a fresh rerun lands on the identical summary.
		_, again := regiontrack.Check(tr, opts)
		if !reflect.DeepEqual(ch.Summarize(), again) {
			return fail("%s: rerun diverged:\n  first %+v\n  again %+v", mode.name, ch.Summarize(), again)
		}

		// Checkpoint cut at the midpoint — mid-region for many generated
		// traces — must converge to the same summary and final snapshot.
		cut := tr.Len() / 2
		half := regiontrack.New(opts)
		for i := 0; i < cut; i++ {
			half.Step(tr.At(i))
		}
		var snap bytes.Buffer
		if err := half.Checkpoint(&snap); err != nil {
			return fail("%s: checkpoint at %d: %v", mode.name, cut, err)
		}
		rest, err := regiontrack.Restore(bytes.NewReader(snap.Bytes()))
		if err != nil {
			return fail("%s: restore at %d: %v", mode.name, cut, err)
		}
		for i := cut; i < tr.Len(); i++ {
			rest.Step(tr.At(i))
		}
		if !reflect.DeepEqual(ch.Summarize(), rest.Summarize()) {
			return fail("%s: restored run diverged at cut %d:\n  full %+v\n  restored %+v",
				mode.name, cut, ch.Summarize(), rest.Summarize())
		}
	}
	return nil
}

// checkRegionTrackRaces gates the checker's race side against the spec
// keys the matrix already computed: composing the serializability graph
// with the engine must not move a single race verdict.
func checkRegionTrackRaces(tr *event.Trace, specKeys []string) *Divergence {
	got := raceKeys(detect.RunTrace(regiontrack.New(regiontrack.DefaultOptions()), tr))
	if !equalKeys(got, specKeys) {
		return &Divergence{
			Backend: "regiontrack",
			Detail:  fmt.Sprintf("races %v, spec %v", got, specKeys),
			Trace:   tr,
		}
	}
	return nil
}
