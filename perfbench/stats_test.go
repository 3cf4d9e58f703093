package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 7}, {0.5, 4}, {0.25, 2.5}, {0.75, 5.5},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 7 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 10, 1000}, 10},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5},
		{100, 0.9}, {999, 0.9}, {1000, 0.99}, {50000, 0.99},
	} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
		beyond := float64(tc.n) * (1 - q)
		if tc.n >= 2*minBeyond && beyond < minBeyond-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves %.1f samples beyond it", tc.n, q, beyond)
		}
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 2); got != 1.5 {
		t.Errorf("ratio(3, 2) = %v, want 1.5", got)
	}
}

func TestLedgerPartsSumToWall(t *testing.T) {
	parts := func(secs ...float64) []ledgerPart {
		var ps []ledgerPart
		for _, s := range secs {
			ps = append(ps, ledgerPart{name: "part", seconds: s})
		}
		return ps
	}
	for _, l := range []ledger{
		{wall: 4.0, parts: parts(2.5, 0.4, 1.0)},
		{wall: 4.0, parts: parts(2.5, 0.4, 1.3)}, // parts overshoot: negative residual
		{wall: 1.0},
	} {
		sum := l.unattributed()
		for _, p := range l.parts {
			sum += p.seconds
		}
		if math.Abs(sum-l.wall) > 1e-12 {
			t.Errorf("%v: parts sum to %v, want wall %v", l, sum, l.wall)
		}
	}
	over := ledger{wall: 4.0, parts: parts(2.5, 0.4, 1.3)}
	if u := over.unattributed(); u >= 0 {
		t.Errorf("overshooting parts gave unattributed %v, want negative", u)
	}
	if got, want := over.String(), "wall 4.000s = part 2.500s + part 0.400s + part 1.300s + unattributed -0.200s"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSameOutputToleratesReductionOrder(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{"series -6.244182317571721\n", "series -6.24418231757172\n", true},
		{"montecarlo 99.50544246832138\n", "montecarlo 99.50544246832145\n", true},
		{"sor 1.5\n", "sor 1.6\n", false},
		{"colt 12\n", "colt 12 13\n", false},
		{"colt ok\n", "colt bad\n", false},
	} {
		if got := sameOutput(tc.a, tc.b); got != tc.want {
			t.Errorf("sameOutput(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLatencyHistBucketsBoundTheValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 12345, 1 << 40} {
		lo := histLower(histBucket(v))
		if lo > v || float64(v-lo) > float64(v)/(1<<subBits) {
			t.Errorf("value %d lands in a bucket starting at %d", v, lo)
		}
	}
	var h latencyHist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i))
	}
	if p50 := h.quantile(0.5); p50 < 440 || p50 > 500 {
		t.Errorf("p50 of 1..1000 = %v, want about 500", p50)
	}
}
