package bench_test

import (
	"strings"
	"testing"

	"goldilocks/internal/bench"
	"goldilocks/internal/detectors"
)

// TestTable1SmallScale generates a complete Table 1 at test scale and
// sanity-checks its structure. Absolute timings are not asserted — only
// that every cell is populated and slowdowns are sane.
func TestTable1SmallScale(t *testing.T) {
	rows, err := bench.Table1(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, r := range rows {
		if r.Uninstrumented <= 0 || r.NoStatic <= 0 || r.Chord <= 0 || r.Rcc <= 0 {
			t.Errorf("%s: missing timing: %+v", r.Name, r)
		}
		if r.NoStaticSlowdown <= 0 {
			t.Errorf("%s: bad slowdown %v", r.Name, r.NoStaticSlowdown)
		}
	}
	out := bench.FormatTable1(rows)
	for _, name := range []string{"colt", "moldyn", "sor2", "tsp"} {
		if !strings.Contains(out, name) {
			t.Errorf("formatted table missing %s", name)
		}
	}
}

// TestTable2SmallScale checks Table 2 generation and its headline
// claims at small scale.
func TestTable2SmallScale(t *testing.T) {
	rows, err := bench.Table2(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]bench.Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The paper's qualitative claims: moldyn/raytracer keep most
	// accesses checked under Chord, and drop substantially under Rcc.
	if m := byName["moldyn"]; m.ChordAccesses < 0.5 || m.RccAccesses > m.ChordAccesses/2 {
		t.Errorf("moldyn coverage shape wrong: %+v", m)
	}
	if r := byName["raytracer"]; r.ChordAccesses < 0.5 || r.RccAccesses > r.ChordAccesses/2 {
		t.Errorf("raytracer coverage shape wrong: %+v", r)
	}
	if c := byName["colt"]; c.ChordAccesses > 0.1 {
		t.Errorf("colt should be almost fully eliminated: %+v", c)
	}
	if s := bench.FormatTable2(rows); !strings.Contains(s, "Accesses checked") {
		t.Error("Table 2 header missing")
	}
}

// TestTable3SmallScale checks Table 3 generation: transaction counts
// grow with the thread count and slowdown stays moderate.
func TestTable3SmallScale(t *testing.T) {
	rows, err := bench.Table3([]int{2, 5, 10}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Transactions <= rows[i-1].Transactions {
			t.Errorf("transactions did not grow: %d then %d", rows[i-1].Transactions, rows[i].Transactions)
		}
		if rows[i].Accesses <= rows[i-1].Accesses {
			t.Errorf("accesses did not grow: %d then %d", rows[i-1].Accesses, rows[i].Accesses)
		}
	}
	if s := bench.FormatTable3(rows); !strings.Contains(s, "#Transactions") {
		t.Error("Table 3 header missing")
	}
}

// TestFigures reproduces the lockset evolutions of Figures 6 and 7.
func TestFigures(t *testing.T) {
	f6 := bench.Figure6()
	for _, want := range []string{
		"LS(o.data) = {T1}",
		"LS(o.data) = {T1, o20.lock}",
		"LS(o.data) = {T1, T2, o20.lock}",
		"LS(o.data) = {T1, T2, o20.lock, o21.lock}",
		"LS(o.data) = {T1, T2, T3, o20.lock, o21.lock}",
		"LS(o.data) = {T3}",
		"LS(o.data) = {T3, o21.lock}",
	} {
		if !strings.Contains(f6, want) {
			t.Errorf("Figure 6 missing %q:\n%s", want, f6)
		}
	}
	if strings.Contains(f6, "RACE") {
		t.Error("Figure 6 reported a race on the race-free Example 2")
	}

	f7 := bench.Figure7()
	for _, want := range []string{
		"LS(o.data) = {T1}",
		"LS(o.data) = {T1, o1.f2, o11.f1}",             // {T1, &head, o.nxt}
		"LS(o.data) = {T2, TL, o1.f2, o11.f0, o11.f1}", // after T2's commit
		"LS(o.data) = {T3}",
	} {
		if !strings.Contains(f7, want) {
			t.Errorf("Figure 7 missing %q:\n%s", want, f7)
		}
	}
	if strings.Contains(f7, "RACE") {
		t.Error("Figure 7 reported a race on the race-free Example 3")
	}
}

// TestMultisetLockAblation: the transaction-aware detector beats the
// transaction-oblivious treatment (exposing the lock-based transaction
// implementation) on detector work per run, and both stay race-free.
func TestMultisetLockAblation(t *testing.T) {
	aware, err := bench.Run(bench.MultisetWorkload(5, 6), bench.RunOptions{Mode: bench.NoStatic, Deterministic: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := bench.Run(bench.MultisetLockWorkload(5, 6), bench.RunOptions{Mode: bench.NoStatic, Deterministic: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Races != 0 || oblivious.Races != 0 {
		t.Fatalf("unexpected races: aware=%d oblivious=%d", aware.Races, oblivious.Races)
	}
	if aware.Commits == 0 {
		t.Error("transaction-aware run committed no transactions")
	}
	// The oblivious variant puts every slot access and the lock traffic
	// through the detector individually.
	if oblivious.Engine.EventsEnqueued <= aware.Engine.EventsEnqueued {
		t.Errorf("oblivious events %d <= aware %d; lock traffic should dominate",
			oblivious.Engine.EventsEnqueued, aware.Engine.EventsEnqueued)
	}
}

// TestDetectorComparison pins every runtime detector's race count on
// every Table 1 workload (test scale, deterministic schedule, seed 1).
// The precise detectors report nothing on the race-free workloads; the
// Eraser-style baselines' counts are false alarms, and they are
// deterministic, so a change that moves any of them shows here.
func TestDetectorComparison(t *testing.T) {
	falseAlarms := map[string]map[string]int{
		"eraser": {"moldyn": 16, "sor2": 18},
		"basic": {
			"colt": 1100, "hedc": 390, "lufact": 660, "moldyn": 42,
			"montecarlo": 10, "philo": 17, "raytracer": 116, "series": 620,
			"sor": 341, "sor2": 703, "tsp": 194,
		},
	}
	rows, err := bench.DetectorComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, e := range detectors.Runtime() {
			want := falseAlarms[e.Name][r.Workload] // 0 for the precise detectors
			if got := r.Reports[e.Name]; got != want {
				t.Errorf("%s: %s reported %d races, want %d", r.Workload, e.Name, got, want)
			}
		}
	}
	if s := bench.FormatDetectorComparison(rows); !strings.Contains(s, "goldilocks") {
		t.Error("formatting broken")
	}
}

// TestTable1RepsTakesFastest: the repetition wrapper keeps the minimum
// timing per cell.
func TestTable1RepsTakesFastest(t *testing.T) {
	rows, err := bench.Table1Reps(false, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Uninstrumented <= 0 || r.NoStatic <= 0 {
			t.Errorf("%s: empty cells: %+v", r.Name, r)
		}
	}
}
