// Command racebench regenerates the paper's evaluation artifacts:
// Table 1 (benchmark runtimes and slowdowns), Table 2 (static-analysis
// coverage), Table 3 (transactional Multiset scaling), the lockset
// evolution traces of Figures 6 and 7, and the cross-detector precision
// comparison.
//
// Usage:
//
//	racebench -table 1 [-full]      # Table 1
//	racebench -table 2 [-full]      # Table 2
//	racebench -table 3 [-ops N]     # Table 3 (threads 5..500)
//	racebench -figure 6             # Figure 6
//	racebench -figure 7             # Figure 7
//	racebench -detectors            # race counts per detector backend
//	racebench -all [-full]          # everything
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"goldilocks/internal/bench"
	"goldilocks/internal/resilience"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate table 1, 2, or 3")
		dets    = flag.Bool("detectors", false, "cross-detector comparison (precision + cost)")
		figure  = flag.Int("figure", 0, "regenerate figure 6 or 7")
		all     = flag.Bool("all", false, "regenerate everything")
		full    = flag.Bool("full", false, "full-scale parameters (slower)")
		ops     = flag.Int("ops", 12, "per-thread operations for Table 3")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(resilience.ExitRuntime)
	}

	if *all || *table == 1 {
		ran = true
		rows, err := bench.Table1(*full, progress)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if *all || *table == 2 {
		ran = true
		rows, err := bench.Table2(*full)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if *all || *table == 3 {
		ran = true
		threads := []int{5, 10, 20, 50, 100, 200, 500}
		if !*full {
			threads = []int{5, 10, 20, 50}
		}
		rows, err := bench.Table3(threads, *ops, progress)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable3(rows))
	}
	if *all || *dets {
		ran = true
		rows, err := bench.DetectorComparison(1)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatDetectorComparison(rows))
	}
	if *all || *figure == 6 {
		ran = true
		fmt.Println(bench.Figure6())
	}
	if *all || *figure == 7 {
		ran = true
		fmt.Println(bench.Figure7())
	}
	if !ran {
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
}
