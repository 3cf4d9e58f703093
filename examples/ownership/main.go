// Example 2 of the paper: hand-over-hand ownership transfer through
// container locks. The execution is race-free, but every Eraser-style
// lockset detector false-alarms on it because the protecting lock
// changes over time. This example prints the Figure 6 lockset evolution
// computed by the Goldilocks rules, then shows the verdicts of
// Goldilocks and the baseline detectors side by side.
//
// Run with: go run ./examples/ownership
package main

import (
	"fmt"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors"
	"goldilocks/internal/scenarios"
)

func main() {
	fmt.Print(bench.Figure6())
	fmt.Println()

	sc := scenarios.Ownership()
	fmt.Println("Detector verdicts on Example 2 (ground truth: race-free):")
	for _, e := range detectors.All() {
		d := e.New(core.DefaultOptions())
		races := detect.RunTrace(d, sc.Trace)
		verdict := "race-free ✓"
		if len(races) > 0 {
			verdict = fmt.Sprintf("FALSE ALARM at action %d (%v)", races[0].Pos, races[0].Var)
		}
		fmt.Printf("  %-16s %s\n", d.Name(), verdict)
	}
}
