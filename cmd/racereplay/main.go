// Command racereplay analyzes a recorded execution trace offline: it
// replays the linearization through the chosen detectors and the
// happens-before oracle and reports every race. Traces are produced by
// cmd/goldilocks -record (legacy JSON or the .jsonl checksummed
// streaming format), or by any tool using event.WriteTrace /
// event.WriteTraceStream. A truncated or partially corrupted streaming
// trace is salvaged: the longest valid prefix replays and the number of
// dropped records is reported.
//
// Usage:
//
//	racereplay [-detector goldilocks|spec|vectorclock|eraser|basic|all] trace.json
//	racereplay -oracle trace.json     # exact extended-race pairs
//	racereplay -serializability trace.json  # conflict-serializability check
//
// Exit codes: 0 no races, 1 at least one race (or, with
// -serializability, a non-serializable execution), 2 usage error, 3
// runtime failure (unreadable trace).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/basic"
	"goldilocks/internal/detectors/eraser"
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
		detName   = flag.String("detector", "goldilocks", "goldilocks, spec, vectorclock, eraser, basic, or all")
		oracle    = flag.Bool("oracle", false, "enumerate exact extended-race pairs via the happens-before oracle")
		serial    = flag.Bool("serializability", false, "check conflict-serializability of the trace's transactional regions (RegionTrack-style)")
		lockRgns  = flag.Bool("lockregions", false, "with -serializability: also treat outermost lock-protected spans as atomic regions")
		statsJSON = flag.String("stats-json", "", "write per-detector rule-fire counts and races (with provenance) to this file; - for stdout")
		remote    = flag.String("remote", "", "replay through the goldilocksd at this address (or comma-separated cluster list, with failover) instead of an in-process detector (see docs/SERVICE.md)")
		session   = flag.String("session", "", "session id for -remote (default: derived from the trace file name); a resumed session replays only the remaining suffix")
		stopAfter = flag.Int("stop-after", 0, "with -remote: stream only this many actions, flush, and detach without closing (the session stays resumable; for restart drills)")
		fastPath  = flag.Bool("fastpath", true, "enable the epoch fast path in the local goldilocks engine (detection verdicts are identical either way)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racereplay [flags] trace.json")
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
	localFastPath = *fastPath
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

// replaySerializability loads a trace and runs the RegionTrack-style
// conflict-serializability checker over it; the return value counts the
// violations found (mapped to the race exit code — a non-serializable
// execution is a flagged execution).
func replaySerializability(path string, lockRegions bool, out *os.File) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tr, dropped, err := event.ReadTraceAuto(f)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "trace: %d actions, %d threads, %d variables\n",
		tr.Len(), len(tr.Threads()), len(tr.Vars()))
	if dropped > 0 {
		fmt.Fprintf(out, "trace damaged: checking the valid %d-action prefix, %d records dropped\n",
			tr.Len(), dropped)
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

// detectorFactories build each detector; tel (nil unless -stats-json is
// set) is attached where the implementation supports telemetry — both
// Goldilocks engines count the same event-level rule fires, so their
// -stats-json output is directly comparable.
// localFastPath mirrors -fastpath into the goldilocks factory.
var localFastPath = true

var detectorFactories = map[string]func(tel *obs.Telemetry) detect.Detector{
	"goldilocks": func(tel *obs.Telemetry) detect.Detector {
		opts := core.DefaultOptions()
		opts.Telemetry = tel
		opts.FastPath = localFastPath
		return core.NewEngine(opts)
	},
	"spec": func(tel *obs.Telemetry) detect.Detector {
		s := core.NewSpecEngine()
		s.SetTelemetry(tel)
		return s
	},
	"vectorclock": func(*obs.Telemetry) detect.Detector { return hb.NewDetector() },
	"eraser":      func(*obs.Telemetry) detect.Detector { return eraser.New() },
	"basic":       func(*obs.Telemetry) detect.Detector { return basic.New() },
}

// replayRaceDoc is one race in the -stats-json document.
type replayRaceDoc struct {
	Var        string          `json:"var"`
	Access     string          `json:"access"`
	Pos        int             `json:"pos"`
	Prev       string          `json:"prev,omitempty"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

// replayStats is the per-detector entry of the -stats-json document.
type replayStats struct {
	Detector  string            `json:"detector"`
	RuleFires map[string]uint64 `json:"rule_fires,omitempty"`
	Races     []replayRaceDoc   `json:"races"`
}

// replay loads a trace and reports races; it returns the number of
// races found by the last analysis run.
func replay(path, detName string, useOracle bool, statsJSON string, out *os.File) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tr, dropped, err := event.ReadTraceAuto(f)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "trace: %d actions, %d threads, %d variables\n",
		tr.Len(), len(tr.Threads()), len(tr.Vars()))
	if dropped > 0 {
		fmt.Fprintf(out, "trace damaged: replaying the valid %d-action prefix, %d records dropped\n",
			tr.Len(), dropped)
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

	names := []string{detName}
	if detName == "all" {
		names = []string{"goldilocks", "spec", "vectorclock", "eraser", "basic"}
	}
	total := 0
	var stats []replayStats
	for _, name := range names {
		mk, ok := detectorFactories[name]
		if !ok {
			return 0, fmt.Errorf("%w: unknown detector %q", errUsage, name)
		}
		var tel *obs.Telemetry
		if statsJSON != "" && (name == "goldilocks" || name == "spec") {
			tel = obs.NewTelemetry()
		}
		races := detect.RunTrace(mk(tel), tr)
		fmt.Fprintf(out, "%s: %d races\n", name, len(races))
		for _, r := range races {
			fmt.Fprintf(out, "  %v\n", &r)
			if r.Prov != nil {
				fmt.Fprintf(out, "    provenance: %v\n", r.Prov)
			}
		}
		if statsJSON != "" {
			stats = append(stats, replayStatsFor(name, tel, races))
		}
		total = len(races)
	}
	if statsJSON != "" {
		if err := writeReplayStats(statsJSON, stats); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// replayStatsFor builds the -stats-json entry for one detector run. The
// rule-fire map is omitted for detectors without telemetry support
// (vector clock, Eraser, basic), which get a nil tel.
func replayStatsFor(name string, tel *obs.Telemetry, races []detect.Race) replayStats {
	st := replayStats{Detector: name, Races: make([]replayRaceDoc, len(races))}
	for i, r := range races {
		st.Races[i] = replayRaceDoc{Var: r.Var.String(), Access: r.Access.String(), Pos: r.Pos, Provenance: r.Prov}
		if r.HasPrev {
			st.Races[i].Prev = r.Prev.String()
		}
	}
	if tel != nil {
		fires := tel.RuleFires()
		st.RuleFires = make(map[string]uint64, obs.NumRules)
		for rule := 1; rule <= obs.NumRules; rule++ {
			st.RuleFires[fmt.Sprintf("%d:%s", rule, obs.RuleName(rule))] = fires[rule]
		}
	}
	return st
}

// writeReplayStats writes the document to path ("-" is stdout).
func writeReplayStats(path string, stats []replayStats) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"detectors": stats})
}
