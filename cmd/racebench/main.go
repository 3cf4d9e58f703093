// Command racebench regenerates the paper's evaluation artifacts:
// Table 1 (benchmark runtimes and slowdowns), Table 2 (static-analysis
// coverage), Table 3 (transactional Multiset scaling), and the lockset
// evolution traces of Figures 6 and 7.
//
// Usage:
//
//	racebench -table 1 [-full]      # Table 1
//	racebench -table 2 [-full]      # Table 2
//	racebench -table 3 [-ops N]     # Table 3 (threads 5..500)
//	racebench -figure 6             # Figure 6
//	racebench -figure 7             # Figure 7
//	racebench -scale [-scaleout F]  # GOMAXPROCS scalability sweep → JSON
//	racebench -txn [-txnout F]      # transactional commit sweep → JSON
//	racebench -channels [-chanout F] # channels-vs-monitors ladder → JSON
//	racebench -all [-full]          # everything
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"goldilocks/internal/bench"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table 1, 2, or 3")
		dets       = flag.Bool("detectors", false, "cross-detector comparison (precision + cost)")
		figure     = flag.Int("figure", 0, "regenerate figure 6 or 7")
		all        = flag.Bool("all", false, "regenerate everything")
		full       = flag.Bool("full", false, "full-scale parameters (slower)")
		ops        = flag.Int("ops", 12, "per-thread operations for Table 3")
		scale      = flag.Bool("scale", false, "GOMAXPROCS scalability sweep")
		scaleMS    = flag.Int("scalems", 200, "milliseconds per scale sweep point")
		scaleTo    = flag.String("scaleout", "BENCH_scale.json", "scale sweep JSON output path")
		txn        = flag.Bool("txn", false, "transactional commit sweep (contended vs disjoint vs governed)")
		txnCommits = flag.Int("txncommits", 20, "commits per thread for -txn")
		txnTo      = flag.String("txnout", "BENCH_txn.json", "txn sweep JSON output path")

		chans   = flag.Bool("channels", false, "channels-vs-monitors contention ladder")
		chIters = flag.Int("chaniters", bench.DefaultChannelSweep().Iters, "critical sections per worker for -channels")
		chTo    = flag.String("chanout", "BENCH_channels.json", "channel ladder JSON output path")
		verbose = flag.Bool("v", false, "progress output")
		metrics = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while benchmarks run (e.g. localhost:6060; insecure, bind to localhost)")
	)
	flag.Parse()

	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	// The live endpoint exposes the detector rule counters (fed by the
	// scale sweep's engines) and process profiling for every benchmark.
	var tel *obs.Telemetry
	if *metrics != "" {
		tel = obs.NewTelemetry()
		reg := obs.NewRegistry()
		tel.Register(reg)
		srv, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "racebench:", err)
			os.Exit(resilience.ExitRuntime)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "racebench: serving metrics on http://%s/metrics\n", srv.Addr())
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
	if *all || *scale {
		ran = true
		procs := []int{1, 2, 4, 8}
		rep := bench.Scale(procs, time.Duration(*scaleMS)*time.Millisecond, tel, progress)
		data, err := bench.MarshalScale(rep)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*scaleTo, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatScale(rep))
		fmt.Println("wrote", *scaleTo)
	}
	if *all || *txn {
		ran = true
		rep := bench.Txn(bench.DefaultTxnThreads(*full), *txnCommits, progress)
		data, err := bench.MarshalTxn(rep)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*txnTo, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatTxn(rep))
		fmt.Println("wrote", *txnTo)
	}
	if *all || *chans {
		ran = true
		cfg := bench.DefaultChannelSweep()
		cfg.Iters = *chIters
		rep, err := bench.ChannelSweep(cfg, progress)
		if err != nil {
			fail(err)
		}
		data, err := bench.MarshalChannels(rep)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*chTo, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatChannels(rep))
		fmt.Println("wrote", *chTo)
	}
	if !ran {
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
}
