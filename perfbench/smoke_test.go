package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"

	"goldilocks/internal/obs"
)

// TestSmokeEveryWorkload runs each workload at test scale, untraced and
// traced, and checks that it passes its own correctness checks and
// reports every metric of its set.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.01, trace: traced, scratch: t.TempDir(), small: true}
			rep, err := run(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if rep.ops.attempted == 0 || rep.ops.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, traced,
					rep.ops.failed, rep.ops.attempted, rep.ops.firstFailures)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(rep.metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(rep.metrics), want)
			}
			if !traced {
				for _, name := range endToEnd {
					if name != "setup_s" && rep.metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want positive", w, name, rep.metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestMJCheckCountsWrongResultsAsFailures(t *testing.T) {
	r := &mjRun{ops: &opCounter{}, golden: map[string]string{}}
	p := &mjProgram{name: "sor", stableOutput: true}
	r.check(p, cfgBase, execution{out: "sor 1.5\n"})
	r.check(p, cfgNoStatic, execution{out: "sor 1.5\n"})
	r.check(p, cfgChord, execution{out: "sor 2.5\n"})                 // wrong result
	r.check(p, cfgNoStatic, execution{out: "sor 1.5\n", races: 1})    // race on a race-free program
	r.check(p, cfgNoStatic, execution{err: errors.New("null deref")}) // runtime error
	if r.ops.attempted != 5 || r.ops.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3: %v", r.ops.attempted, r.ops.failed, r.ops.firstFailures)
	}
}

func TestServiceCountsWrongVerdictsAsFailures(t *testing.T) {
	o := options{seed: 5, scratch: t.TempDir(), small: true}
	s, err := setupService(o, []*obs.Tracer{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	racy := s.plain[len(s.plain)-1]
	racy.want = racy.want[1:] // the daemon now reports one verdict too many
	ops := &opCounter{}
	r := &serviceRun{o: o, rng: rand.New(rand.NewSource(1)), ops: ops}
	r.stream(s.daemons[0], s.plain, false)
	if ops.attempted != len(s.plain) || ops.failed != 1 {
		t.Errorf("attempted %d failed %d, want %d and 1: %v", ops.attempted, ops.failed, len(s.plain), ops.firstFailures)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	type declared struct{ Name, Unit string }
	var bj struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, program %q", i, m.Name, endToEnd[i])
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
	for i, w := range bj.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %v", i, w.Name, workloads)
		}
	}
}
