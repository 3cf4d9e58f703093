// Command goldilocks runs an MJ program on the race- and
// transaction-aware runtime: the command-line face of the paper's
// modified JVM.
//
// Usage:
//
//	goldilocks [flags] program.mj
//
// Flags select the detector (goldilocks, vectorclock, eraser, basic, or
// none), the static pre-analysis (none, chord, rcc), the race policy
// (throw or log), and the scheduler (deterministic with a seed, or
// free). On exit it prints the races observed and, with -stats, the
// detector and runtime counters.
//
// Exit codes: 0 clean run, 1 at least one race reported, 2 usage error,
// 3 runtime failure (I/O, parse, or a deterministic-scheduler deadlock).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/basic"
	"goldilocks/internal/detectors/eraser"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/explore"
	"goldilocks/internal/hb"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
	"goldilocks/internal/static"
)

// errUsage marks errors caused by bad flags or arguments so exitFor can
// map them to ExitUsage.
var errUsage = errors.New("usage error")

func usageErrf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, a...))
}

// exitFor maps a run outcome to the standard exit code.
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

// runConfig carries the flag settings into run.
type runConfig struct {
	detector string
	static   string
	policy   string
	sched    string
	seed     int64
	stats    bool
	noSC     bool
	fastPath bool // epoch fast path in the goldilocks engine
	record   string
	serial   bool   // record the run and check conflict-serializability
	onError  string // quarantine | abort
	budget   int    // event-list cell budget; 0: unbounded
	remote   string // goldilocksd address; offload detection there
	session  string // session id for -remote

	// Observability (docs/OBSERVABILITY.md). Any of these being set
	// enables telemetry; all unset keeps the detector hot path free of
	// instrumentation beyond one nil check per site.
	statsJSON     string        // write the composite stats document here; "-" is stdout
	metricsAddr   string        // serve /metrics, /debug/vars, /debug/pprof here
	metricsLinger time.Duration // keep the metrics endpoint up this long after the run
	traceVars     string        // comma-separated variables to trace locksets for; "all" traces everything
}

func main() {
	var (
		detName  = flag.String("detector", "goldilocks", "race detector: goldilocks, vectorclock, eraser, basic, none")
		analysis = flag.String("static", "none", "static pre-analysis: none, chord, rcc")
		policy   = flag.String("policy", "throw", "on race: throw (DataRaceException) or log")
		sched    = flag.String("sched", "free", "scheduler: free or det")
		seed     = flag.Int64("seed", 1, "seed for the deterministic scheduler")
		stats    = flag.Bool("stats", false, "print runtime and detector statistics")
		noSC     = flag.Bool("no-shortcircuit", false, "disable the short-circuit checks (ablation)")
		fastPath = flag.Bool("fastpath", true, "enable the epoch fast path in the goldilocks engine (verdicts are identical either way; ablation)")
		record   = flag.String("record", "", "write the observed linearization to this file (.jsonl: checksummed streaming format; replay with cmd/racereplay)")
		serial   = flag.Bool("serializability", false, "after the run, check conflict-serializability of its atomic regions (transactions and outermost lock-protected spans); a violation exits like a race")
		onError  = flag.String("on-detector-error", "quarantine", "when a detector check panics: quarantine (drop the variable, keep running) or abort")
		budget   = flag.Int("memory-budget", 0, "event-list cell budget; over it the engine degrades gracefully (0: unbounded)")
		remote   = flag.String("remote", "", "offload detection to the goldilocksd at this address (or comma-separated cluster list, with failover) instead of running an in-process detector (forces -policy log; see docs/SERVICE.md)")
		session  = flag.String("session", "", "session id for -remote (default: goldilocks-<pid>)")
		exploreN = flag.Int("explore", 0, "systematically explore up to N schedules and report how many race (implies -sched det)")
		exploreP = flag.Int("explore-bound", 0, "preemption bound for -explore (0: unbounded)")
		exploreT = flag.Duration("explore-timeout", 0, "wall-clock budget for -explore (0: unbounded)")

		statsJSON  = flag.String("stats-json", "", "write the machine-readable stats document (metrics, races with provenance, runtime counters) to this file; - for stdout")
		metrics    = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run (e.g. localhost:6060; insecure, bind to localhost)")
		linger     = flag.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after the run (for external scrapers)")
		traceLocks = flag.String("trace-locksets", "", "record lockset transitions for these comma-separated variables (e.g. o10.f0), or \"all\"")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: goldilocks [flags] program.mj")
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
	if *exploreN > 0 {
		racy, err := exploreSchedules(flag.Arg(0), *exploreN, *exploreP, *exploreT)
		if err != nil {
			fmt.Fprintln(os.Stderr, "goldilocks:", err)
		}
		os.Exit(exitFor(racy, err))
	}
	// SIGINT/SIGTERM cut the post-run linger short (and any other
	// ctx-aware wait) but still run the structured-exit path: stats
	// documents are written, the metrics server shuts down gracefully,
	// and the exit code reflects the run's verdict — not a bare kill.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	nraces, err := run(ctx, flag.Arg(0), runConfig{
		detector: *detName,
		static:   *analysis,
		policy:   *policy,
		sched:    *sched,
		seed:     *seed,
		stats:    *stats,
		noSC:     *noSC,
		fastPath: *fastPath,
		record:   *record,
		serial:   *serial,
		onError:  *onError,
		budget:   *budget,
		remote:   *remote,
		session:  *session,

		statsJSON:     *statsJSON,
		metricsAddr:   *metrics,
		metricsLinger: *linger,
		traceVars:     *traceLocks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldilocks:", err)
	}
	os.Exit(exitFor(nraces, err))
}

// exploreSchedules runs the program under systematic schedule
// exploration and reports the racy/clean split.
func exploreSchedules(path string, maxSchedules, preemptionBound int, timeout time.Duration) (int, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	prog, err := mj.Parse(string(src))
	if err != nil {
		return 0, err
	}
	if err := mj.Check(prog); err != nil {
		return 0, err
	}
	body := func(c jrt.Chooser) int {
		p, err := mj.Parse(string(src))
		if err != nil {
			panic(err)
		}
		if err := mj.Check(p); err != nil {
			panic(err)
		}
		rt := jrt.NewRuntime(jrt.Config{
			Detector: core.New(),
			Policy:   jrt.Log,
			Mode:     jrt.Deterministic,
			Chooser:  c,
		})
		interp, err := mj.NewInterp(p, mj.InterpConfig{Runtime: rt})
		if err != nil {
			panic(err)
		}
		races, err := interp.Run()
		if err != nil {
			panic(err)
		}
		return len(races)
	}
	res := explore.Schedules(explore.Options{
		MaxSchedules:    maxSchedules,
		PreemptionBound: preemptionBound,
		Timeout:         timeout,
	}, body, nil)
	coverage := "bounded"
	if res.Exhausted {
		coverage = "exhaustive"
	}
	if res.TimedOut {
		coverage = "timed out"
	}
	fmt.Printf("explored %d schedules (%s): %d racy, %d race-free\n",
		res.Schedules, coverage, res.Racy, res.Schedules-res.Racy)
	if res.FirstRacy != nil {
		fmt.Printf("first racy schedule decision sequence: %v\n", res.FirstRacy)
	}
	return res.Racy, nil
}

// run executes the program and returns the number of races reported.
// A cancelled ctx (SIGINT/SIGTERM) cuts interruptible waits short; the
// structured-exit path still runs in full.
func run(ctx context.Context, path string, c runConfig) (int, error) {
	errPolicy, err := resilience.ParseErrorPolicy(c.onError)
	if err != nil {
		return 0, usageErrf("%v", err)
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	prog, err := mj.Parse(string(src))
	if err != nil {
		return 0, err
	}
	if err := mj.Check(prog); err != nil {
		return 0, err
	}

	var mask []bool
	switch c.static {
	case "none":
	case "chord":
		r := static.Chord(prog)
		mask = r.Apply(prog)
		fmt.Fprintf(os.Stderr, "chord: %d/%d access sites proven race-free\n", r.SafeSiteCount(), mj.NumSites(prog))
	case "rcc":
		r, err := static.Rcc(prog)
		if err != nil {
			return 0, err
		}
		mask = r.Apply(prog)
		fmt.Fprintf(os.Stderr, "rcc: %d/%d access sites proven race-free\n", r.SafeSiteCount(), mj.NumSites(prog))
	default:
		return 0, usageErrf("unknown static analysis %q", c.static)
	}

	// Any observability flag switches telemetry on; otherwise tel stays
	// nil and the engine's instrumentation sites reduce to a nil check.
	var tel *obs.Telemetry
	if c.statsJSON != "" || c.metricsAddr != "" || c.traceVars != "" {
		tel = obs.NewTelemetry()
		switch c.traceVars {
		case "":
		case "all":
			tel.Trace.Enable()
		default:
			var names []string
			for _, v := range strings.Split(c.traceVars, ",") {
				if v = strings.TrimSpace(v); v != "" {
					names = append(names, v)
				}
			}
			tel.Trace.Enable(names...)
		}
	}

	cfg := jrt.Config{}
	var engine *core.Engine
	var guard *jrt.Guarded
	var remote *remoteSession
	if c.remote != "" {
		sessionID := c.session
		if sessionID == "" {
			sessionID = fmt.Sprintf("goldilocks-%d", os.Getpid())
		}
		remote, err = dialRemote(c.remote, sessionID)
		if err != nil {
			return 0, err
		}
		cfg.Detector = remote
		fmt.Fprintf(os.Stderr, "goldilocks: streaming to %s (session %s)\n", c.remote, sessionID)
	}
	switch {
	case remote != nil: // detection offloaded; -detector does not apply
	case c.detector == "goldilocks":
		opts := core.DefaultOptions()
		if c.noSC {
			opts.SC1, opts.SC2, opts.SC3, opts.XactSC = false, false, false, false
		}
		opts.FastPath = c.fastPath
		opts.OnError = errPolicy
		opts.MemoryBudget = c.budget
		opts.Telemetry = tel
		engine = core.NewEngine(opts)
		cfg.Detector = engine
	case c.detector == "vectorclock":
		guard = jrt.Guard(jrt.Serialize(hb.NewDetector()), errPolicy)
		cfg.Detector = guard
	case c.detector == "eraser":
		guard = jrt.Guard(jrt.Serialize(eraser.New()), errPolicy)
		cfg.Detector = guard
	case c.detector == "basic":
		guard = jrt.Guard(jrt.Serialize(basic.New()), errPolicy)
		cfg.Detector = guard
	case c.detector == "none":
	default:
		return 0, usageErrf("unknown detector %q", c.detector)
	}
	var recorder *jrt.Recorder
	if c.record != "" || c.serial {
		inner := cfg.Detector
		if inner == nil {
			inner = nopDetector{}
		}
		recorder = jrt.Record(inner)
		cfg.Detector = recorder
	}
	switch c.policy {
	case "throw":
		cfg.Policy = jrt.Throw
	case "log":
		cfg.Policy = jrt.Log
	default:
		return 0, usageErrf("unknown policy %q", c.policy)
	}
	if remote != nil && cfg.Policy == jrt.Throw {
		// Remote verdicts arrive asynchronously: there is no way to throw
		// a DataRaceException into the accessing thread from the daemon.
		fmt.Fprintln(os.Stderr, "goldilocks: -remote cannot throw into the accessing thread; using -policy log")
		cfg.Policy = jrt.Log
	}
	switch c.sched {
	case "free":
		cfg.Mode = jrt.Free
	case "det":
		cfg.Mode = jrt.Deterministic
		cfg.Seed = c.seed
	default:
		return 0, usageErrf("unknown scheduler %q", c.sched)
	}

	rt := jrt.NewRuntime(cfg)

	// The registry aggregates every metric source; the live endpoint and
	// the -stats-json document both read from it.
	var reg *obs.Registry
	var sampler *obs.Sampler
	var srv *obs.Server
	if tel != nil {
		reg = obs.NewRegistry()
		if engine != nil {
			engine.RegisterMetrics(reg)
			sampler = engine.StartSampling(reg, time.Second)
		} else {
			tel.Register(reg)
		}
		rt.RegisterMetrics(reg)
		if c.metricsAddr != "" {
			srv, err = obs.Serve(c.metricsAddr, reg)
			if err != nil {
				return 0, err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "goldilocks: serving metrics on http://%s/metrics\n", srv.Addr())
		}
	}

	interp, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, Out: os.Stdout, SiteNoCheck: mask})
	if err != nil {
		return 0, err
	}
	races, err := interp.Run()
	if err != nil {
		return 0, err
	}
	sampler.Stop()
	if remote != nil {
		ack, rerr := remote.finish()
		if rerr != nil {
			return 0, fmt.Errorf("remote session: %w", rerr)
		}
		races = append(races, remote.races()...)
		fmt.Fprintf(os.Stderr, "goldilocks: remote session applied %d actions, %d races\n", ack.Applied, ack.Races)
	}

	for _, r := range races {
		fmt.Fprintf(os.Stderr, "race: %v\n", &r)
		if r.Prov != nil {
			fmt.Fprintf(os.Stderr, "  provenance: %v\n", r.Prov)
		}
	}
	for _, u := range rt.Uncaught() {
		fmt.Fprintf(os.Stderr, "uncaught %v (thread terminated)\n", u)
	}
	if c.stats {
		rs := rt.Stats()
		fmt.Fprintf(os.Stderr, "runtime: %d accesses (%d checked), %d variables, %d sync ops, %d races thrown\n",
			rs.TotalAccesses, rs.CheckedAccesses, rs.VarsCreated, rs.SyncOps, rs.RacesThrown)
		if engine != nil {
			es := engine.Stats()
			fmt.Fprintf(os.Stderr, "goldilocks: %d pair checks, short-circuit %.1f%%, %d full walks over %d cells, %d collections\n",
				es.PairChecks, 100*es.ShortCircuitRate(), es.FullWalks, es.WalkCells, es.Collections)
			fmt.Fprintf(os.Stderr, "resilience: %d panics recovered, %d vars quarantined, rung %v (%d escalations), %d aggressive GCs, %d cache sheds, %d eager sweeps, %d degraded checks\n",
				es.PanicsRecovered, es.VarsQuarantined, es.GovernorRung, es.Escalations,
				es.AggressiveGCs, es.CacheSheds, es.EagerSweeps, es.DegradedChecks)
		}
		if guard != nil {
			panics, quarantined := guard.GuardStats()
			fmt.Fprintf(os.Stderr, "resilience: %d panics recovered, %d vars quarantined\n", panics, quarantined)
		}
	}
	if recorder != nil && c.record != "" {
		if err := writeRecording(c.record, recorder.Trace()); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "recorded %d actions to %s\n", recorder.Trace().Len(), c.record)
	}
	violations := 0
	if c.serial {
		// The recorded linearization is exactly what the detector saw;
		// lock-protected spans count as regions because MJ programs mark
		// atomicity with monitors and transactions alike.
		opts := regiontrack.DefaultOptions()
		opts.LockRegions = true
		_, sum := regiontrack.Check(recorder.Trace(), opts)
		for _, v := range sum.Violations {
			fmt.Fprintf(os.Stderr, "serializability violation at action %d: region %d -> region %d closes cycle %v (threads %v)\n",
				v.Pos, v.From, v.To, v.Cycle, v.Threads)
		}
		verdict := "serializable"
		if !sum.Serializable {
			verdict = "NOT serializable"
		}
		fmt.Fprintf(os.Stderr, "serializability: %s — %d regions (%d multi-event), %d conflict edges, %d violations\n",
			verdict, sum.Regions, sum.MultiRegions, sum.Edges, sum.ViolationTotal)
		violations = sum.ViolationTotal
	}
	if c.statsJSON != "" {
		if err := writeStatsJSON(c.statsJSON, statsDoc(reg, tel, engine, rt, races)); err != nil {
			return 0, err
		}
	}
	if srv != nil && c.metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "goldilocks: metrics endpoint lingering for %v\n", c.metricsLinger)
		lingerTimer := time.NewTimer(c.metricsLinger)
		select {
		case <-lingerTimer.C:
		case <-ctx.Done():
			lingerTimer.Stop()
			fmt.Fprintln(os.Stderr, "goldilocks: signal received, cutting linger short")
		}
	}
	if rep := rt.Failure(); rep != nil {
		fmt.Fprintf(os.Stderr, "goldilocks: %v\n", rep)
		return len(races) + violations, rep
	}
	return len(races) + violations, nil
}

// raceDoc is one race in the -stats-json document.
type raceDoc struct {
	Var        string          `json:"var"`
	Access     string          `json:"access"`
	Pos        int             `json:"pos"`
	Prev       string          `json:"prev,omitempty"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

// statsDoc assembles the composite -stats-json document: the metric
// registry snapshot, the races with their provenance, and the raw
// runtime/engine counters.
func statsDoc(reg *obs.Registry, tel *obs.Telemetry, engine *core.Engine, rt *jrt.Runtime, races []detect.Race) map[string]any {
	rds := make([]raceDoc, len(races))
	for i, r := range races {
		rds[i] = raceDoc{Var: r.Var.String(), Access: r.Access.String(), Pos: r.Pos, Provenance: r.Prov}
		if r.HasPrev {
			rds[i].Prev = r.Prev.String()
		}
	}
	doc := map[string]any{
		"metrics": reg.JSONValue(),
		"races":   rds,
		"runtime": rt.Stats(),
	}
	if engine != nil {
		doc["engine"] = engine.Stats()
	}
	if rep := rt.Failure(); rep != nil {
		doc["failure"] = rep
	}
	if tel.Trace.Enabled() {
		transitions, dropped := tel.Trace.Snapshot()
		doc["trace"] = map[string]any{"transitions": transitions, "dropped": dropped}
	}
	return doc
}

// writeStatsJSON writes the document to path ("-" is stdout).
func writeStatsJSON(path string, doc map[string]any) error {
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
	return enc.Encode(doc)
}

// writeRecording writes the trace in the format the path's extension
// selects: .jsonl is the checksummed streaming format (robust to
// truncation), anything else the legacy single-object JSON.
func writeRecording(path string, tr *event.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return event.WriteTraceStream(f, tr)
	}
	return event.WriteTrace(f, tr)
}

// nopDetector lets -record work with -detector none.
type nopDetector struct{}

func (nopDetector) Sync(event.Action) {}
func (nopDetector) Read(event.Tid, event.Addr, event.FieldID) *detect.Race {
	return nil
}
func (nopDetector) Write(event.Tid, event.Addr, event.FieldID) *detect.Race {
	return nil
}
func (nopDetector) Commit(event.Tid, []event.Variable, []event.Variable) []detect.Race {
	return nil
}
func (nopDetector) Alloc(event.Tid, event.Addr) {}
