package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks: q=0 is the minimum, q=1 the
// maximum, q=0.5 the median. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the middle sample of xs (the mean of the two middle
// samples for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the tail percentile to report for n samples: the
// highest of p99, p90 and p50 with at least minBeyond samples above it.
// The fixed ladder keeps the reported percentile from drifting with the
// sample count between runs. Below 2*minBeyond samples even the median
// has fewer than minBeyond beyond it; it is still the one reported.
func tailQuantile(n int) float64 {
	for _, p := range []int{99, 90} {
		if n*(100-p) >= minBeyond*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// ratio returns a/b, or 0 when b is 0, so that an idle layer reports 0
// rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledgerPart is one attributed share of a wall-clock time.
type ledgerPart struct {
	name    string
	seconds float64
}

// ledger splits a wall-clock time into the parts that configurations run
// back to back attribute to each layer. For the MJ workloads these are
// the uninstrumented program, the runtime's detector hooks (a no-op
// detector minus no detector) and the detector itself (the engine minus
// the no-op detector). Each part is a median over passes, so the parts
// need not add up to the median wall time; the signed remainder is
// reported as unattributed rather than spread over the parts.
type ledger struct {
	wall  float64
	parts []ledgerPart
}

// unattributed returns wall minus every attributed part.
func (l ledger) unattributed() float64 {
	u := l.wall
	for _, p := range l.parts {
		u -= p.seconds
	}
	return u
}

func (l ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall %.3fs =", l.wall)
	for _, p := range l.parts {
		fmt.Fprintf(&b, " %s %.3fs +", p.name, p.seconds)
	}
	fmt.Fprintf(&b, " unattributed %+.3fs", l.unattributed())
	return b.String()
}
