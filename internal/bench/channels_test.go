package bench

import "testing"

// TestChannelSweepSmall runs a reduced ladder and checks the invariants
// the BENCH_channels.json artifact is trusted for: full coverage of the
// (style, workers, weight, backend) grid, zero races from the precise
// detectors on both race-free sync styles, and a recorded overhead for
// every non-baseline backend.
func TestChannelSweepSmall(t *testing.T) {
	cfg := ChannelSweepConfig{Workers: []int{2, 3}, Weights: []int{1, 4}, Iters: 8, Seed: 1}
	rep, err := ChannelSweep(cfg, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 2 * len(cfg.Workers) * len(cfg.Weights) * len(channelBackends)
	if len(rep.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(rep.Points), wantPoints)
	}
	for _, p := range rep.Points {
		if p.Backend == "goldilocks" || p.Backend == "vectorclock" {
			if p.Races != 0 {
				t.Errorf("%s on %s workers=%d weight=%d: %d false races",
					p.Backend, p.Style, p.Workers, p.Weight, p.Races)
			}
		}
		if p.Backend == "none" && p.Races != 0 {
			t.Errorf("baseline reported %d races with no detector", p.Races)
		}
		if p.Overhead <= 0 {
			t.Errorf("%s/%s: overhead %.3f not recorded", p.Style, p.Backend, p.Overhead)
		}
	}
	if _, err := MarshalChannels(rep); err != nil {
		t.Fatal(err)
	}
}

// TestChannelLadderDeterministic: the same seed must reproduce the same
// race counts (the timing columns may differ).
func TestChannelLadderDeterministic(t *testing.T) {
	src := instantiateLadder(channelLadderSrc, 3, 2, 5)
	for _, b := range channelBackends {
		r1, _, err := runProgram(src, runtimeDetector(b), 7)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r2, _, err := runProgram(src, runtimeDetector(b), 7)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r1 != r2 {
			t.Errorf("%s: race count not deterministic: %d vs %d", b.Name, r1, r2)
		}
	}
}
