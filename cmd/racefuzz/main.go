// Command racefuzz runs the conformance fuzzing harness from the
// command line: coverage-guided random traces through the full
// differential detector matrix (spec engine, optimized engine with
// serial and concurrent delivery, vector-clock detector, happens-before
// oracle, metamorphic engine variants), with delta-debugging shrinking
// and a content-addressed counterexample corpus on failure.
//
// Usage:
//
//	racefuzz [-n 1000] [-seed 1] [-channels 2] [-corpus dir] [-shrink] [-mutants] [-check file ...]
//
// Modes:
//
//	(default)   fuzz -n traces; print the Figure 5 rule-coverage table;
//	            on divergence, optionally shrink (-shrink) and write the
//	            counterexample into -corpus.
//	-mutants    mutation-test the harness itself: for every droppable
//	            Figure 5 rule, verify that an engine with that rule
//	            disabled is caught and that the witness shrinks small.
//	-check      replay the given corpus files (or every .jsonl in
//	            -corpus when no files are named) through the matrix.
//
// Exit codes: 0 all checks passed, 1 divergence found (or a mutant
// escaped), 2 usage error, 3 runtime failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"goldilocks/internal/conformance"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
	"goldilocks/internal/tracegen"
)

var errUsage = errors.New("usage error")

// exitFor maps a run outcome to the standard exit code: failures
// (divergences, escaped mutants) are "races" of the harness itself.
func exitFor(failures int, err error) int {
	switch {
	case errors.Is(err, errUsage):
		return resilience.ExitUsage
	case err != nil:
		return resilience.ExitRuntime
	case failures > 0:
		return resilience.ExitRace
	default:
		return resilience.ExitClean
	}
}

type config struct {
	n        int
	seed     int64
	steps    int
	threads  int
	txnBias  float64
	channels int
	shrink   bool
	corpus   string
	mutants  bool
	check    bool
	files    []string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 1000, "number of fuzzing iterations")
	flag.Int64Var(&cfg.seed, "seed", 1, "deterministic fuzzing seed")
	flag.IntVar(&cfg.steps, "steps", 0, "trace length (0: generator default)")
	flag.IntVar(&cfg.threads, "threads", 0, "max threads per trace (0: generator default)")
	flag.Float64Var(&cfg.txnBias, "txn-bias", -1, "transaction bias in [0,1] (-1: generator default)")
	flag.IntVar(&cfg.channels, "channels", 2, "channel objects per trace (0: channel-free traces)")
	flag.BoolVar(&cfg.shrink, "shrink", true, "minimize divergent traces with delta debugging")
	flag.StringVar(&cfg.corpus, "corpus", "", "directory for counterexamples (write on failure, read with -check)")
	flag.BoolVar(&cfg.mutants, "mutants", false, "mutation-test the harness against rule-dropped engines")
	flag.BoolVar(&cfg.check, "check", false, "replay corpus files through the matrix instead of fuzzing")
	flag.Parse()
	cfg.files = flag.Args()

	failures, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racefuzz:", err)
	}
	os.Exit(exitFor(failures, err))
}

// run executes the selected mode and returns the number of failures.
func run(cfg config, w io.Writer) (int, error) {
	switch {
	case cfg.check:
		return runCheck(cfg, w)
	case cfg.mutants:
		return runMutants(cfg, w)
	default:
		if len(cfg.files) != 0 {
			return 0, fmt.Errorf("%w: positional arguments need -check", errUsage)
		}
		return runFuzz(cfg, w)
	}
}

func genConfig(cfg config) tracegen.Config {
	gc := tracegen.Default()
	if cfg.steps > 0 {
		gc.Steps = cfg.steps
	}
	if cfg.threads > 0 {
		gc.MaxThreads = cfg.threads
	}
	if cfg.txnBias >= 0 {
		gc.TxnBias = cfg.txnBias
	}
	if cfg.channels > 0 {
		gc.Channels = cfg.channels
	}
	return gc
}

// runFuzz is the default mode: a coverage-guided batch with a rule
// coverage report.
func runFuzz(cfg config, w io.Writer) (int, error) {
	if cfg.n <= 0 {
		return 0, fmt.Errorf("%w: -n must be positive", errUsage)
	}
	f := conformance.NewFuzzer(cfg.seed, genConfig(cfg))
	for i := 0; i < cfg.n; i++ {
		d := f.Step()
		if d == nil {
			continue
		}
		if cfg.shrink {
			d.Trace = conformance.Shrink(d.Trace, func(tr *event.Trace) bool {
				return conformance.Check(tr) != nil
			})
		}
		path := ""
		if cfg.corpus != "" {
			p, err := conformance.WriteCounterexample(cfg.corpus, d.Trace)
			if err != nil {
				return len(f.Failures), err
			}
			path = p
		}
		fmt.Fprint(w, conformance.ReportCounterexample(d, path))
	}

	fmt.Fprintf(w, "racefuzz: %d traces (seed %d): %d racy, %d race-free, %d divergent\n",
		f.Executed, cfg.seed, f.Racy, f.Executed-f.Racy, len(f.Failures))
	fmt.Fprintf(w, "corpus: %d coverage-novel traces, %d signatures\n", f.CorpusSize(), f.NewCoverage())
	fmt.Fprintf(w, "Figure 5 rule coverage:\n")
	fmt.Fprintf(w, "  %-4s %-16s %12s %10s\n", "rule", "name", "fires", "traces")
	zero := 0
	for r := 1; r <= obs.NumRules; r++ {
		fmt.Fprintf(w, "  %-4d %-16s %12d %10d\n", r, obs.RuleName(r), f.RuleFires[r], f.RuleTraces[r])
		if f.RuleTraces[r] == 0 {
			zero++
		}
	}
	if zero > 0 {
		fmt.Fprintf(w, "racefuzz: WARNING: %d rules with zero covering traces\n", zero)
	}
	return len(f.Failures), nil
}

// runMutants verifies the harness catches every droppable rule's
// removal and shrinks the witness.
func runMutants(cfg config, w io.Writer) (int, error) {
	escaped := 0
	for _, rule := range conformance.MutantRules {
		tr, ok := conformance.FindMutantCounterexample(rule, cfg.seed, 500)
		if !ok {
			fmt.Fprintf(w, "rule %d (%-14s): ESCAPED — no counterexample in 500 traces\n", rule, obs.RuleName(rule))
			escaped++
			continue
		}
		path := ""
		if cfg.corpus != "" {
			p, err := conformance.WriteCounterexample(cfg.corpus, tr)
			if err != nil {
				return escaped, err
			}
			path = " -> " + p
		}
		fmt.Fprintf(w, "rule %d (%-14s): caught, shrunk to %d events%s\n", rule, obs.RuleName(rule), tr.Len(), path)
	}
	if escaped == 0 {
		fmt.Fprintf(w, "racefuzz: all %d rule mutants caught\n", len(conformance.MutantRules))
	}
	return escaped, nil
}

// runCheck replays corpus files through the matrix.
func runCheck(cfg config, w io.Writer) (int, error) {
	var entries []conformance.CorpusEntry
	if len(cfg.files) > 0 {
		for _, path := range cfg.files {
			tr, err := conformance.LoadTraceFile(path)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			entries = append(entries, conformance.CorpusEntry{Name: path, Path: path, Trace: tr})
		}
	} else {
		if cfg.corpus == "" {
			return 0, fmt.Errorf("%w: -check needs files or -corpus", errUsage)
		}
		var err error
		entries, err = conformance.LoadCorpus(cfg.corpus)
		if err != nil {
			return 0, err
		}
	}
	if len(entries) == 0 {
		return 0, fmt.Errorf("no traces to check")
	}
	failures := 0
	for _, e := range entries {
		if d := conformance.Check(e.Trace); d != nil {
			failures++
			fmt.Fprintf(w, "%s: FAIL: %v\n%s", e.Name, d, conformance.Describe(d.Trace))
		} else {
			fmt.Fprintf(w, "%s: ok (%d events)\n", e.Name, e.Trace.Len())
		}
	}
	fmt.Fprintf(w, "racefuzz: %d/%d corpus traces passed the matrix\n", len(entries)-failures, len(entries))
	return failures, nil
}
