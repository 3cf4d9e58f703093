package core_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// oracleFirst returns the position of the first extended race and the
// set of variables racing at that position. A single action (a commit)
// can complete races on several variables at once; a precise detector
// must report at the same position on one of those variables, but which
// one is representation-dependent.
func oracleFirst(o *hb.Oracle) (pos int, vars map[string]bool, ok bool) {
	first, found := o.FirstRacePos()
	if !found {
		return 0, nil, false
	}
	vars = make(map[string]bool)
	for _, p := range o.Races() {
		if p.J == first.J {
			vars[p.Var.String()] = true
		}
	}
	return first.J, vars, true
}

// agreesWithOracle checks a detector's first report against the oracle.
func agreesWithOracle(r *detect.Race, pos int, vars map[string]bool, racy bool) bool {
	if !racy {
		return r == nil
	}
	return r != nil && r.Pos == pos && vars[r.Var.String()]
}

// TestTheorem1Property is the paper's Theorem 1 as a property test: on a
// random well-formed trace, the spec engine, the optimized engine (in
// several configurations), and the vector-clock detector all report
// their first race exactly where the extended happens-before oracle says
// the first extended race completes — same position, same variable — and
// report nothing on race-free traces.
func TestTheorem1Property(t *testing.T) {
	configs := configurations()
	check := func(seed int64) bool {
		tr := tracegen.FromSeed(seed)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid trace: %v", seed, err)
		}
		pos, vars, racy := oracleFirst(hb.NewOracle(tr))

		if r := detect.FirstRace(core.NewSpecEngine(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Logf("seed %d: spec = %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
			return false
		}
		if r := detect.FirstRace(hb.NewDetector(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Logf("seed %d: vectorclock = %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
			return false
		}
		for name, opts := range configs {
			if r := detect.FirstRace(core.NewEngine(opts), tr); !agreesWithOracle(r, pos, vars, racy) {
				t.Logf("seed %d: engine[%s] = %v, oracle pos %d vars %v racy %v", seed, name, r, pos, vars, racy)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTheorem1DenseTransactions repeats the property on transaction-
// heavy traces, where the commit rules carry most of the weight.
func TestTheorem1DenseTransactions(t *testing.T) {
	cfg := tracegen.Default()
	cfg.TxnBias = 0.7
	cfg.SyncBias = 0.3
	cfg.Steps = 80
	for seed := int64(0); seed < 300; seed++ {
		tr := tracegen.FromSeedConfig(seed, cfg)
		pos, vars, racy := oracleFirst(hb.NewOracle(tr))
		if r := detect.FirstRace(core.NewSpecEngine(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Fatalf("seed %d: spec = %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
		}
		if r := detect.FirstRace(core.New(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Fatalf("seed %d: engine = %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
		}
		if r := detect.FirstRace(hb.NewDetector(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Fatalf("seed %d: vectorclock = %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
		}
	}
}

// TestSpecEngineFullRunEquivalence: beyond the first race, the optimized
// engine and the spec engine must report the identical (position,
// variable) race sequence for the whole trace, under every
// configuration. (The happens-before oracle is only ground truth up to
// the first race — after a race the lockset semantics intentionally
// reset ownership rather than keep the full relation.)
func TestSpecEngineFullRunEquivalence(t *testing.T) {
	configs := configurations()
	for seed := int64(0); seed < 400; seed++ {
		tr := tracegen.FromSeed(seed)
		specRaces := raceKeys(detect.RunTrace(core.NewSpecEngine(), tr))
		sort.Strings(specRaces)
		for name, opts := range configs {
			got := raceKeys(detect.RunTrace(core.NewEngine(opts), tr))
			sort.Strings(got)
			if !equalStrings(specRaces, got) {
				t.Fatalf("seed %d: engine[%s] races %v, spec races %v", seed, name, got, specRaces)
			}
		}
	}
}

// TestSeededRegressionTraces pins a handful of generator seeds with
// known verdicts so behaviour changes surface as explicit diffs.
func TestSeededRegressionTraces(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := tracegen.FromSeed(seed)
		pos, vars, racy := oracleFirst(hb.NewOracle(tr))
		if r := detect.FirstRace(core.New(), tr); !agreesWithOracle(r, pos, vars, racy) {
			t.Errorf("seed %d: engine %v, oracle pos %d vars %v racy %v", seed, r, pos, vars, racy)
		}
	}
}

// TestScenarioOracleAgreement: the ground-truth verdicts recorded in the
// scenarios package agree with the oracle itself.
func TestScenarioOracleAgreement(t *testing.T) {
	for _, sc := range scenarios.All() {
		oracle := hb.NewOracle(sc.Trace)
		pair, racy := oracle.FirstRacePos()
		if racy != sc.Racy {
			t.Errorf("%s: oracle racy = %v, scenario says %v", sc.Name, racy, sc.Racy)
			continue
		}
		if racy && (pair.J != sc.RacePos || pair.Var != sc.RaceVar) {
			t.Errorf("%s: oracle first race %v at %d, scenario says %v at %d",
				sc.Name, pair.Var, pair.J, sc.RaceVar, sc.RacePos)
		}
	}
}

// TestVCDetectorScenarios: the vector-clock baseline is also precise on
// the paper's scenarios.
func TestVCDetectorScenarios(t *testing.T) {
	for _, sc := range scenarios.All() {
		r := detect.FirstRace(hb.NewDetector(), sc.Trace)
		if sc.Racy {
			if r == nil || r.Pos != sc.RacePos || r.Var != sc.RaceVar {
				t.Errorf("%s: vc race = %v, want %v at %d", sc.Name, r, sc.RaceVar, sc.RacePos)
			}
		} else if r != nil {
			t.Errorf("%s: vc false race %v", sc.Name, r)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGeneratorValidity: every generated trace passes Validate across a
// spread of configurations.
func TestGeneratorValidity(t *testing.T) {
	cfgs := []tracegen.Config{
		tracegen.Default(),
		{Steps: 200, MaxThreads: 8, Objects: 5, Fields: 3, Locks: 4, Volatiles: 3, TxnBias: 0.5, SyncBias: 0.6},
		{Steps: 30, MaxThreads: 2, Objects: 1, Fields: 1, Locks: 1, Volatiles: 1, TxnBias: 0, SyncBias: 0.8},
	}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < 100; seed++ {
			tr := tracegen.FromSeedConfig(seed, cfg)
			if err := tr.Validate(); err != nil {
				t.Fatalf("cfg %d seed %d: %v", ci, seed, err)
			}
		}
	}
}

// TestGeneratorProducesBothVerdicts guards against the generator
// degenerating into all-racy or all-race-free traces.
func TestGeneratorProducesBothVerdicts(t *testing.T) {
	racy, clean := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		tr := tracegen.FromSeed(seed)
		if _, ok := hb.NewOracle(tr).FirstRacePos(); ok {
			racy++
		} else {
			clean++
		}
	}
	if racy < 10 || clean < 10 {
		t.Errorf("degenerate generator: %d racy, %d clean of 200", racy, clean)
	}
}

// TestEquivalenceStatsAfterRefactor replays the deterministic trace
// corpus through the de-serialized engine (lock-free tail snapshots,
// sharded variable table, per-thread lock records) and pins both halves
// of its observable behaviour: the race set must match SpecEngine
// exactly, and the Stats short-circuit counters must be deterministic —
// two replays of the same linearization produce identical counters —
// and satisfy the accounting identity (every pair check is resolved by
// exactly one of SC1/SC2/SC3/Xact/HBCache/full walk/degraded
// assumption). A refactor that changed what the short-circuits see
// (e.g. a stale lock snapshot or tail) would shift these counters even
// when the verdicts survive.
func TestEquivalenceStatsAfterRefactor(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		tr := tracegen.FromSeed(seed)
		specRaces := raceKeys(detect.RunTrace(core.NewSpecEngine(), tr))
		sort.Strings(specRaces)

		run := func() (keys []string, st core.Stats) {
			e := core.New()
			keys = raceKeys(detect.RunTrace(e, tr))
			sort.Strings(keys)
			return keys, e.Stats()
		}
		got1, st1 := run()
		got2, st2 := run()

		if !equalStrings(specRaces, got1) {
			t.Fatalf("seed %d: engine races %v, spec races %v", seed, got1, specRaces)
		}
		if !equalStrings(got1, got2) {
			t.Fatalf("seed %d: race set not deterministic: %v vs %v", seed, got1, got2)
		}
		if st1 != st2 {
			t.Fatalf("seed %d: stats not deterministic on identical replays:\n%+v\n%+v", seed, st1, st2)
		}
		resolved := st1.SC1Hits + st1.SC2Hits + st1.SC3Hits + st1.XactHits +
			st1.HBCacheHits + st1.FullWalks + st1.DegradedChecks
		if resolved != st1.PairChecks {
			t.Fatalf("seed %d: pair-check accounting broken: %d resolved of %d checks (%+v)",
				seed, resolved, st1.PairChecks, st1)
		}
		if r := st1.ShortCircuitRate(); r < 0 || r > 1 {
			t.Fatalf("seed %d: short-circuit rate %v out of range", seed, r)
		}
		if st1.Races != uint64(len(got1)) {
			t.Fatalf("seed %d: Stats.Races = %d, reported %d", seed, st1.Races, len(got1))
		}
	}
}

// TestLocksetLevelEquivalence goes beyond verdict equality: after every
// prefix-complete run of a random trace, the optimized engine's lazily
// evaluated write lockset of every variable equals the spec engine's
// eagerly maintained one. This pins the whole representation (event
// list, lazy walks, memoization, GC advances), not just race reports.
func TestLocksetLevelEquivalence(t *testing.T) {
	configs := configurations()
	for seed := int64(0); seed < 150; seed++ {
		tr := tracegen.FromSeed(seed)
		for name, opts := range configs {
			spec := core.NewSpecEngine()
			eng := core.NewEngine(opts)
			detect.RunTrace(spec, tr)
			detect.RunTrace(eng, tr)
			for _, v := range tr.Vars() {
				want := spec.WriteLockset(v)
				got := eng.WriteLockset(v.Obj, v.Field)
				switch {
				case want == nil && got == nil:
				case want == nil || got == nil:
					t.Fatalf("seed %d [%s]: %v lockset presence differs (spec %v, engine %v)",
						seed, name, v, want, got)
				case !want.Equal(got):
					t.Fatalf("seed %d [%s]: LS(%v): spec %v, engine %v", seed, name, v, want, got)
				}
			}
		}
	}
}

// TestConformanceCounterexampleReplay replays every minimized
// counterexample committed under internal/conformance/testdata/ —
// traces that once witnessed (injected or real) detector bugs — through
// both engines. Each must agree with the happens-before oracle on the
// first race and with the spec engine on the complete race set, so a
// regression that resurrects an old bug fails here even without running
// the fuzzer.
func TestConformanceCounterexampleReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "conformance", "testdata", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no counterexamples under internal/conformance/testdata")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, dropped, err := event.ReadTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			if dropped != 0 {
				t.Fatalf("%d corrupt records dropped — corpus file damaged", dropped)
			}
			pos, vars, racy := oracleFirst(hb.NewOracle(tr))
			specKeys := raceKeys(detect.RunTrace(core.NewSpecEngine(), tr))
			sort.Strings(specKeys)
			if r := detect.FirstRace(core.New(), tr); !agreesWithOracle(r, pos, vars, racy) {
				t.Errorf("engine first race %v, oracle pos %d vars %v racy %v", r, pos, vars, racy)
			}
			engKeys := raceKeys(detect.RunTrace(core.New(), tr))
			sort.Strings(engKeys)
			if !equalStrings(engKeys, specKeys) {
				t.Errorf("engine races %v, spec %v", engKeys, specKeys)
			}
		})
	}
}
