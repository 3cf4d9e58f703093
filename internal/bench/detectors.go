package bench

import (
	"fmt"
	"strings"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
)

// DetectorRow compares the detectors on one workload: precise detectors
// must report zero races on the (race-free) benchmark programs, while
// the Eraser-style baselines' nonzero counts are false alarms — the
// precision gap of Section 4.1 measured on real workloads rather than
// toy examples.
type DetectorRow struct {
	Workload string
	// Reports maps detector name to the number of races reported.
	Reports map[string]int
	// Elapsed maps detector name to wall-clock time.
	Elapsed map[string]time.Duration
}

// runtimeDetector builds a fresh runtime detector for registry entry e.
func runtimeDetector(e detectors.Entry) jrt.Detector {
	return jrt.Serialize(e.New(core.DefaultOptions()))
}

// DetectorComparison runs every Table 1 workload (test scale,
// deterministic schedule) under each detector.
func DetectorComparison(seed int64) ([]DetectorRow, error) {
	var rows []DetectorRow
	for _, w := range Table1Workloads() {
		row := DetectorRow{
			Workload: w.Name,
			Reports:  make(map[string]int),
			Elapsed:  make(map[string]time.Duration),
		}
		src := w.Instantiate(false)
		for _, d := range detectors.Runtime() {
			races, elapsed, err := runProgram(src, runtimeDetector(d), seed)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, d.Name, err)
			}
			row.Elapsed[d.Name] = elapsed
			row.Reports[d.Name] = races
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runProgram runs an MJ program under det on the deterministic
// scheduler and returns the race count and wall time.
func runProgram(src string, det jrt.Detector, seed int64) (int, time.Duration, error) {
	prog, err := mj.Parse(src)
	if err != nil {
		return 0, 0, err
	}
	if err := mj.Check(prog); err != nil {
		return 0, 0, err
	}
	rt := jrt.NewRuntime(jrt.Config{
		Detector: det,
		Policy:   jrt.Log,
		Mode:     jrt.Deterministic,
		Seed:     seed,
	})
	interp, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	races, err := interp.Run()
	if err != nil {
		return 0, 0, err
	}
	return len(races), time.Since(start), nil
}

// FormatDetectorComparison renders the comparison. The workloads are
// race-free, so every nonzero report is a false alarm.
func FormatDetectorComparison(rows []DetectorRow) string {
	var sb strings.Builder
	sb.WriteString("Detector comparison on the benchmark suite (all workloads race-free;\n")
	sb.WriteString("reports by imprecise detectors are false alarms)\n")
	fmt.Fprintf(&sb, "%-12s", "Benchmark")
	for _, d := range detectors.Runtime() {
		fmt.Fprintf(&sb, " | %13s", d.Name)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s", r.Workload)
		for _, d := range detectors.Runtime() {
			fmt.Fprintf(&sb, " | %2d in %7s", r.Reports[d.Name],
				r.Elapsed[d.Name].Round(time.Millisecond))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
