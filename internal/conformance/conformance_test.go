package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// TestMatrixOnScenarios runs every Section 2 scenario through the full
// differential matrix.
func TestMatrixOnScenarios(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if d := Check(sc.Trace); d != nil {
				t.Fatalf("%v", d)
			}
		})
	}
}

// TestMatrixOnSeeds runs generated traces (default and a denser, more
// transactional configuration) through the matrix.
func TestMatrixOnSeeds(t *testing.T) {
	dense := tracegen.Default()
	dense.Steps, dense.TxnBias, dense.MaxThreads = 80, 0.4, 5
	for seed := int64(1); seed <= 30; seed++ {
		if d := Check(tracegen.FromSeed(seed)); d != nil {
			t.Fatalf("seed %d: %v\n%s", seed, d, Describe(d.Trace))
		}
		if d := Check(tracegen.FromSeedConfig(seed, dense)); d != nil {
			t.Fatalf("dense seed %d: %v\n%s", seed, d, Describe(d.Trace))
		}
	}
}

// TestConcurrentDeliveryMatchesSerial pins the concurrent-delivery
// harness directly (the matrix also covers it, but a direct comparison
// localizes failures): same races, same order-insensitive key set, for
// both engines.
func TestConcurrentDeliveryMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tr := tracegen.FromSeed(seed)
		serial := raceKeys(detect.RunTrace(core.New(), tr))
		conc := raceKeys(RunConcurrent(core.New(), tr))
		if !equalKeys(serial, conc) {
			t.Fatalf("seed %d: concurrent %v, serial %v", seed, conc, serial)
		}
	}
}

// TestFuzzerCoversAllRules runs a deterministic fuzzing batch and
// requires it to be clean and to exercise every Figure 5 rule — the "no
// zero rows" acceptance criterion, at test-suite scale.
func TestFuzzerCoversAllRules(t *testing.T) {
	f := NewFuzzer(1, tracegen.Config{})
	if divs := f.Run(200); len(divs) != 0 {
		t.Fatalf("fuzzer found %d divergences, first: %v\n%s",
			len(divs), divs[0], Describe(divs[0].Trace))
	}
	for r := 1; r <= obs.NumRules; r++ {
		if f.RuleTraces[r] == 0 {
			t.Errorf("rule %d (%s): zero covering traces in batch", r, obs.RuleName(r))
		}
	}
	if f.CorpusSize() == 0 {
		t.Error("fuzzer retained no coverage-novel traces")
	}
	if f.Racy == 0 || f.Racy == f.Executed {
		t.Errorf("degenerate verdict mix: %d racy of %d", f.Racy, f.Executed)
	}
}

// TestMutationsCaughtAndShrunk is the mutation-testing acceptance
// criterion: for every droppable Figure 5 rule, disabling the rule must
// produce a divergence the fuzzer finds, and the shrinker must minimize
// the witness to at most 12 events (8 for the channel rules, whose
// rendezvous chains shrink tighter) that still witness the bug.
func TestMutationsCaughtAndShrunk(t *testing.T) {
	for _, rule := range MutantRules {
		rule := rule
		t.Run(obs.RuleName(rule), func(t *testing.T) {
			min, ok := FindMutantCounterexample(rule, 1, 500)
			if !ok {
				t.Fatalf("rule %d: no counterexample in 500 traces — the fuzzer cannot catch this mutation", rule)
			}
			if !MutantDiverges(rule, min) {
				t.Fatalf("rule %d: minimized trace no longer witnesses the bug:\n%s", rule, Describe(min))
			}
			limit := 12
			if rule >= obs.RuleChanSend {
				limit = 8
			}
			if min.Len() > limit {
				t.Errorf("rule %d: minimized counterexample has %d events (want <= %d):\n%s",
					rule, min.Len(), limit, Describe(min))
			}
		})
	}
}

// TestShrinkPreservesPredicate shrinks a known racy generated trace
// down to the race itself.
func TestShrinkPreservesPredicate(t *testing.T) {
	racy := func(tr *event.Trace) bool {
		return len(detect.RunTrace(core.NewSpecEngine(), tr)) > 0
	}
	found := false
	for seed := int64(1); seed <= 20; seed++ {
		tr := tracegen.FromSeed(seed)
		if !racy(tr) {
			continue
		}
		found = true
		min := Shrink(tr, racy)
		if !racy(min) {
			t.Fatalf("seed %d: shrunk trace lost the predicate", seed)
		}
		if min.Len() > 3 {
			// The minimal racy trace is two conflicting accesses (or one
			// access + one commit); allow one extra structural event.
			t.Errorf("seed %d: shrunk racy trace still has %d events:\n%s", seed, min.Len(), Describe(min))
		}
		if err := min.Validate(); err != nil {
			t.Fatalf("seed %d: shrunk trace invalid: %v", seed, err)
		}
	}
	if !found {
		t.Fatal("no racy seed among 1..20 — generator regressed")
	}
}

// TestMutateProducesValidTraces hammers the mutator: every returned
// trace must validate, and mutation must actually change something a
// reasonable fraction of the time.
func TestMutateProducesValidTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := tracegen.FromSeed(3)
	changed := 0
	for i := 0; i < 300; i++ {
		mut := Mutate(rng, tr)
		if err := mut.Validate(); err != nil {
			t.Fatalf("mutation %d invalid: %v", i, err)
		}
		if mut != tr {
			changed++
		}
		tr = mut
	}
	if changed < 150 {
		t.Errorf("only %d/300 mutations changed the trace", changed)
	}
}

// TestCorpusRoundTrip checks content-addressed counterexample writing
// and lossless corpus loading.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := tracegen.FromSeed(5)
	path, err := WriteCounterexample(dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	again, err := WriteCounterexample(dir, tr)
	if err != nil || again != path {
		t.Fatalf("re-write not idempotent: %q vs %q (err %v)", again, path, err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("corpus has %d entries, want 1", len(entries))
	}
	got, want := entries[0].Trace, tr
	if got.Len() != want.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.At(i).String() != want.At(i).String() {
			t.Fatalf("action %d: %v != %v", i, got.At(i), want.At(i))
		}
	}
}

// TestLoadCorpusRejectsCorruption flips a byte in a corpus file and
// requires LoadCorpus to refuse it (corpus files must be lossless; the
// salvage path is for live capture only).
func TestLoadCorpusRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteCounterexample(dir, tracegen.FromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("LoadCorpus accepted a corrupted corpus file")
	}
}

// TestSeedCorpusReplays replays every checked-in counterexample under
// testdata/ through the full matrix: once a bug is minimized and
// committed, the matrix must keep passing on it forever.
func TestSeedCorpusReplays(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no seed corpus under testdata/ — the checked-in counterexamples are missing")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if d := Check(e.Trace); d != nil {
				t.Fatalf("%v\n%s", d, Describe(e.Trace))
			}
		})
	}
}

// TestSeedCorpusReencodes: re-encoding every checked-in counterexample
// reproduces its records byte for byte. A current-version file also
// reproduces its header and so its content-addressed ce-<crc> name; an
// older-version file differs only in the header line.
func TestSeedCorpusReencodes(t *testing.T) {
	entries, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	current := event.AppendHeader(nil, event.StreamFormatName, event.StreamFormatVersion)
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			disk, err := os.ReadFile(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			enc, sum, err := EncodeTrace(e.Trace)
			if err != nil {
				t.Fatal(err)
			}
			_, diskRecs, _ := bytes.Cut(disk, []byte("\n"))
			_, encRecs, _ := bytes.Cut(enc, []byte("\n"))
			if !bytes.Equal(diskRecs, encRecs) {
				t.Fatalf("re-encoded records differ from the file")
			}
			if !bytes.HasPrefix(disk, current) {
				return
			}
			if name := fmt.Sprintf("ce-%08x.jsonl", sum); name != e.Name {
				t.Fatalf("re-encoded file is named %s", name)
			}
		})
	}
}

// TestDegradedSubsetOnPressure double-checks the degraded invariant on
// a trace long enough to force the full ladder climb: the degraded
// engine's reports are a subset of the precise ones.
func TestDegradedSubsetOnPressure(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 400
	for seed := int64(1); seed <= 5; seed++ {
		tr := tracegen.FromSeedConfig(seed, cfg)
		spec := raceKeys(detect.RunTrace(core.NewSpecEngine(), tr))
		deg := raceKeys(detect.RunTrace(core.NewEngine(DegradedOptions()), tr))
		if !subsetKeys(deg, spec) {
			t.Fatalf("seed %d: degraded %v not subset of %v", seed, deg, spec)
		}
	}
}
