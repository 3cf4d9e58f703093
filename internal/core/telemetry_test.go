package core_test

import (
	"fmt"
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/tracegen"
)

// provByKey indexes the provenance string of each race by its
// (position, variable) identity, the representation-independent race
// key the equivalence tests use.
func provByKey(t *testing.T, races []detect.Race) map[string]string {
	t.Helper()
	out := make(map[string]string, len(races))
	for _, r := range races {
		key := r.Var.String() + "@" + r.Access.String()
		if r.Prov == nil {
			t.Fatalf("race %v has no provenance", &r)
		}
		out[key] = r.Prov.String()
	}
	return out
}

// TestMetricsDeterminism is the determinism contract of the engines'
// counters: processing one linearization through the spec engine and the
// optimized engine yields identical per-rule fire counters and identical
// provenance output. Rule fires count events of the linearization (not
// representation-dependent walk work, which WalkRuleHits tracks
// separately), so memoization, short-circuits, and sharding must not
// show through.
func TestMetricsDeterminism(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tr := tracegen.FromSeed(seed)

		spec := core.NewSpecEngine()
		specRaces := detect.RunTrace(spec, tr)
		eng := core.New()
		engRaces := detect.RunTrace(eng, tr)

		if specFires, engFires := spec.RuleFires(), eng.RuleFires(); specFires != engFires {
			t.Fatalf("seed %d: rule fires diverge\nspec:   %v\nengine: %v", seed, specFires, engFires)
		}
		specProv := provByKey(t, specRaces)
		engProv := provByKey(t, engRaces)
		if len(specProv) != len(engProv) {
			t.Fatalf("seed %d: %d spec races vs %d engine races", seed, len(specProv), len(engProv))
		}
		for key, want := range specProv {
			if got, ok := engProv[key]; !ok {
				t.Fatalf("seed %d: engine missing race %s", seed, key)
			} else if got != want {
				t.Fatalf("seed %d: provenance diverges for %s\nspec:   %s\nengine: %s", seed, key, want, got)
			}
		}
	}
}

// TestProvenancePath pins the provenance of a directed scenario: T1
// writes x under lock m and T3 later reads x with no synchronization to
// T1. The lockset must evolve {T1} → {T1, m} via rule 2 (release), and
// the report must state that no chain reached T3.
func TestProvenancePath(t *testing.T) {
	const (
		obj  = event.Addr(10)
		m    = event.Addr(20)
		fld  = event.FieldID(0)
		t1   = event.Tid(1)
		t2   = event.Tid(2)
		t3   = event.Tid(3)
		lock = "o20"
	)
	tr := event.NewTrace([]event.Action{
		event.Acquire(t1, m),
		event.Write(t1, obj, fld),
		event.Release(t1, m),
		event.Acquire(t2, m),
		event.Read(t2, obj, fld), // ordered: lockset holds m at T2's acquire
		event.Release(t2, m),
		event.Read(t3, obj, fld), // racy: no chain to T3
	})

	for _, det := range []detect.Detector{core.New(), core.NewSpecEngine()} {
		races := detect.RunTrace(det, tr)
		if len(races) != 1 {
			t.Fatalf("%s: got %d races, want 1", det.Name(), len(races))
		}
		p := races[0].Prov
		if p == nil {
			t.Fatalf("%s: race has no provenance", det.Name())
		}
		if p.Base != "{T1}" {
			t.Errorf("%s: base lockset %q, want {T1}", det.Name(), p.Base)
		}
		rules := p.Rules()
		if len(rules) == 0 || rules[0] != obs.RuleRelease {
			t.Errorf("%s: first provenance rule %v, want release (2)", det.Name(), rules)
		}
		if !strings.Contains(p.Path(), lock) {
			t.Errorf("%s: path %q never contains the lock %s", det.Name(), p.Path(), lock)
		}
		if !strings.Contains(p.String(), "no synchronization chain reached T3") {
			t.Errorf("%s: provenance %q lacks the unreached-thread clause", det.Name(), p)
		}
	}
}

// TestStatsRatioZeroDenominators: the ratio helpers must report 0, not
// NaN, before any work has been counted (a fresh engine scraped by the
// metrics endpoint).
func TestStatsRatioZeroDenominators(t *testing.T) {
	var s core.Stats
	if r := s.ShortCircuitRate(); r != 0 {
		t.Errorf("ShortCircuitRate() = %v, want 0", r)
	}
	if r := s.FullWalkRate(); r != 0 {
		t.Errorf("FullWalkRate() = %v, want 0", r)
	}
	if r := s.AvgWalkCells(); r != 0 {
		t.Errorf("AvgWalkCells() = %v, want 0", r)
	}
	if r := s.GCReclaimRate(); r != 0 {
		t.Errorf("GCReclaimRate() = %v, want 0", r)
	}
}

// TestEngineRegisterMetrics: a fresh engine binds the rule counters and
// stats gauges into a registry, and the exports carry every rule plus
// the three short-circuit counters separately.
func TestEngineRegisterMetrics(t *testing.T) {
	e := core.New()
	e.Sync(event.Acquire(1, 20))
	e.Write(1, 10, 0)

	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`goldilocks_rule_fires_total{rule="1"} 1`,
		`goldilocks_rule_fires_total{rule="3"} 1`,
		`goldilocks_rule_fires_total{rule="9"} 0`,
		"# TYPE goldilocks_rule_fires_total counter",
		"goldilocks_sc1_hits_total",
		"goldilocks_sc2_hits_total",
		"goldilocks_sc3_hits_total",
		"goldilocks_walk_depth_cells_count",
		"goldilocks_shard_contention_total",
		"goldilocks_trace_buffered",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus export lacks %q", want)
		}
	}
}

// TestTraceHookTransitions pins what the engine writes to its lockset
// trace hook for one traced variable: the access resets (rule 1) and
// every walk application that grew the lockset, with the lockset after
// it. T1 writes x under lock m and T2 reads it after taking and
// dropping m, so the SC3 walk applies rules 2 and 3; T2 then writes x
// and hands it to T3 over an unbuffered channel, so T3's read walks
// the channel rules 10 and 11. An untraced variable records nothing.
func TestTraceHookTransitions(t *testing.T) {
	const (
		x = event.Addr(10)
		m = event.Addr(20)
		c = event.Addr(30)
		y = event.Addr(40)
	)
	e := core.New()
	if e.Trace().Enabled() {
		t.Fatal("a new engine's trace hook is enabled")
	}
	e.Trace().Enable("o10.f0")
	for _, a := range []event.Action{
		event.Fork(1, 2),
		event.Fork(1, 3),
		event.ChanMake(1, c, 0),
		event.Acquire(1, m),
		event.Write(1, x, 0),
		event.Write(1, y, 0),
		event.Release(1, m),
		event.Acquire(2, m),
		event.Release(2, m),
		event.Read(2, x, 0),
		event.Write(2, x, 0),
		event.ChanSend(2, c),
		event.ChanRecv(3, c),
		event.Read(3, x, 0),
	} {
		if races := e.Step(a); len(races) > 0 {
			t.Fatalf("%v: unexpected race %v", a, races)
		}
	}
	trs, dropped := e.Trace().Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d transitions", dropped)
	}
	type step struct {
		rule    int
		lockset string
	}
	got := make([]step, len(trs))
	for i, tr := range trs {
		if tr.Var != "o10.f0" {
			t.Fatalf("transition %d traces %s, want only o10.f0", i, tr.Var)
		}
		got[i] = step{tr.Rule, tr.Lockset}
	}
	want := []step{
		{obs.RuleAccess, "{T1}"},
		{obs.RuleRelease, "{T1, o20.lock}"},
		{obs.RuleAcquire, "{T1, T2, o20.lock}"},
		{obs.RuleAccess, "{T2}"},
		{obs.RuleAccess, "{T2}"},
		{obs.RuleChanSend, "{T2, o30.ch[0]}"},
		{obs.RuleChanRecv, "{T2, T3, o30.ch[0]}"},
		{obs.RuleAccess, "{T3}"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions\n got %v\nwant %v", got, want)
	}
	if e.Trace().Disable(); e.Trace().Enabled() {
		t.Fatal("trace hook still enabled after Disable")
	}
}
