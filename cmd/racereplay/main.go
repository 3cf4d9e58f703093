// Command racereplay analyzes a recorded execution trace offline: it
// replays the linearization through the chosen detectors and the
// happens-before oracle and reports every race. Traces are produced by
// cmd/goldilocks -record or by any tool using event.WriteTrace, in the
// checksummed JSONL trace file format. A truncated or partially
// corrupted trace is salvaged: the longest valid prefix replays and the
// number of dropped records is reported.
//
// Usage:
//
//	racereplay [-detector goldilocks|spec|vectorclock|eraser|basic|all] trace.jsonl
//	racereplay -oracle trace.jsonl     # exact extended-race pairs
//	racereplay -serializability trace.jsonl  # conflict-serializability check
//
// Exit codes: 0 no races, 1 at least one race (or, with
// -serializability, a non-serializable execution), 2 usage error, 3
// runtime failure (unreadable trace).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// errUsage marks bad flags or arguments for exit-code mapping.
var errUsage = errors.New("usage error")

// exitFor maps a replay outcome to the standard exit code.
func exitFor(nraces int, err error) int {
	switch {
	case errors.Is(err, errUsage):
		return resilience.ExitUsage
	case err != nil:
		return resilience.ExitRuntime
	case nraces > 0:
		return resilience.ExitRace
	default:
		return resilience.ExitClean
	}
}

func main() {
	var (
		detName   = flag.String("detector", "goldilocks", detectors.Names(detectors.All())+", or all")
		oracle    = flag.Bool("oracle", false, "enumerate exact extended-race pairs via the happens-before oracle")
		serial    = flag.Bool("serializability", false, "check conflict-serializability of the trace's transactional regions (RegionTrack-style)")
		lockRgns  = flag.Bool("lockregions", false, "with -serializability: also treat outermost lock-protected spans as atomic regions")
		statsJSON = flag.String("stats-json", "", "write per-detector rule-fire counts and races (with provenance) to this file; - for stdout")
		remote    = flag.String("remote", "", "replay through the goldilocksd at this address (or comma-separated cluster list, with failover) instead of an in-process detector (see docs/SERVICE.md)")
		session   = flag.String("session", "", "session id for -remote (default: derived from the trace file name); a resumed session replays only the remaining suffix")
		stopAfter = flag.Int("stop-after", 0, "with -remote: stream only this many actions, flush, and detach without closing (the session stays resumable; for restart drills)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racereplay [flags] trace.jsonl")
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
	if *remote != "" {
		n, err := replayRemote(flag.Arg(0), *remote, *session, *stopAfter, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "racereplay:", err)
		}
		os.Exit(exitFor(n, err))
	}
	if *serial {
		n, err := replaySerializability(flag.Arg(0), *lockRgns, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "racereplay:", err)
		}
		os.Exit(exitFor(n, err))
	}
	n, err := replay(flag.Arg(0), *detName, *oracle, *statsJSON, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racereplay:", err)
	}
	os.Exit(exitFor(n, err))
}

// loadTrace reads a trace file and prints its summary line, plus a
// damage line naming what the caller is doing with the salvaged prefix
// when records were dropped.
func loadTrace(path, verb string, out *os.File) (*event.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, dropped, err := event.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d actions, %d threads, %d variables\n",
		tr.Len(), len(tr.Threads()), len(tr.Vars()))
	if dropped > 0 {
		fmt.Fprintf(out, "trace damaged: %s the valid %d-action prefix, %d records dropped\n",
			verb, tr.Len(), dropped)
	}
	return tr, nil
}

// replaySerializability loads a trace and runs the RegionTrack-style
// conflict-serializability checker over it; the return value counts the
// violations found (mapped to the race exit code — a non-serializable
// execution is a flagged execution).
func replaySerializability(path string, lockRegions bool, out *os.File) (int, error) {
	tr, err := loadTrace(path, "checking", out)
	if err != nil {
		return 0, err
	}
	opts := regiontrack.DefaultOptions()
	opts.LockRegions = lockRegions
	races, sum := regiontrack.Check(tr, opts)
	fmt.Fprintf(out, "goldilocks (via regiontrack): %d races\n", len(races))
	for _, v := range sum.Violations {
		fmt.Fprintf(out, "serializability violation at action %d (%v): region %d -> region %d closes cycle %v (threads %v)\n",
			v.Pos, tr.At(v.Pos), v.From, v.To, v.Cycle, v.Threads)
	}
	verdict := "serializable"
	if !sum.Serializable {
		verdict = "NOT serializable"
	}
	fmt.Fprintf(out, "regiontrack: %s — %d regions (%d multi-event), %d conflict edges, %d violations\n",
		verdict, sum.Regions, sum.MultiRegions, sum.Edges, sum.ViolationTotal)
	return sum.ViolationTotal, nil
}

// replayStats is the per-detector entry of the -stats-json document.
type replayStats struct {
	Detector  string              `json:"detector"`
	RuleFires map[string]uint64   `json:"rule_fires,omitempty"`
	Races     []detect.RaceRecord `json:"races"`
}

// replay loads a trace and reports races; it returns the number of
// races found by the last analysis run.
func replay(path, detName string, useOracle bool, statsJSON string, out *os.File) (int, error) {
	tr, err := loadTrace(path, "replaying", out)
	if err != nil {
		return 0, err
	}

	if useOracle {
		o := hb.NewOracle(tr)
		pairs := o.Races()
		for _, p := range pairs {
			fmt.Fprintf(out, "race pair on %v: action %d (%v) vs action %d (%v)\n",
				p.Var, p.I, tr.At(p.I), p.J, tr.At(p.J))
		}
		fmt.Fprintf(out, "oracle: %d extended race pairs\n", len(pairs))
		return len(pairs), nil
	}

	entries := detectors.All()
	if detName != "all" {
		e, ok := detectors.Lookup(entries, detName)
		if !ok {
			return 0, fmt.Errorf("%w: unknown detector %q", errUsage, detName)
		}
		entries = []detectors.Entry{e}
	}
	total := 0
	var stats []replayStats
	for _, e := range entries {
		det := e.New(core.DefaultOptions())
		races := detect.RunTrace(det, tr)
		fmt.Fprintf(out, "%s: %d races\n", e.Name, len(races))
		for _, r := range races {
			fmt.Fprintf(out, "  %v\n", &r)
			if r.Prov != nil {
				fmt.Fprintf(out, "    provenance: %v\n", r.Prov)
			}
		}
		if statsJSON != "" {
			stats = append(stats, replayStatsFor(e.Name, det, races))
		}
		total = len(races)
	}
	if statsJSON != "" {
		if err := detect.WriteStatsJSON(statsJSON, map[string]any{"detectors": stats}); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// replayStatsFor builds the -stats-json entry for one detector run. The
// rule-fire map is omitted for detectors that count no rule fires
// (vector clock, Eraser, basic).
func replayStatsFor(name string, det detect.Detector, races []detect.Race) replayStats {
	st := replayStats{Detector: name, Races: detect.Records(races)}
	if rc, ok := det.(core.RuleCounter); ok {
		fires := rc.RuleFires()
		st.RuleFires = make(map[string]uint64, obs.NumRules)
		for rule := 1; rule <= obs.NumRules; rule++ {
			st.RuleFires[fmt.Sprintf("%d:%s", rule, obs.RuleName(rule))] = fires[rule]
		}
	}
	return st
}
