package bench

import (
	"fmt"
	"io"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/static"
)

// Mode selects the Table 1 column.
type Mode string

// The four measurement configurations of Table 1.
const (
	Uninstrumented Mode = "uninstrumented" // interpreter, race detection off
	NoStatic       Mode = "nostatic"       // Goldilocks, no static elimination
	WithChord      Mode = "chord"          // Goldilocks + Chord-style elimination
	WithRcc        Mode = "rcc"            // Goldilocks + RccJava-style elimination
)

// Metrics is one measured run.
type Metrics struct {
	Elapsed time.Duration
	Races   int
	Engine  core.Stats
	Runtime jrt.Stats
	// SafeSites / TotalSites report the static analysis outcome.
	SafeSites, TotalSites int
	// Commits and Aborts are transaction counts (Table 3).
	Commits, Aborts uint64
}

// RunOptions tunes a harness run.
type RunOptions struct {
	Mode Mode
	// FullScale selects the Table 1 parameters instead of test-scale.
	FullScale bool
	// Deterministic runs under the seeded scheduler (tests); benchmarks
	// use the free scheduler.
	Deterministic bool
	Seed          int64
	// Out receives program output; nil discards it.
	Out io.Writer
}

// Run executes one workload under one configuration and reports
// measurements. Front-end work (parse, check, static analysis) happens
// before the clock starts, matching the paper's ahead-of-time use of the
// static tools.
func Run(w Workload, opts RunOptions) (Metrics, error) {
	src := w.Instantiate(opts.FullScale)
	prog, err := mj.Parse(src)
	if err != nil {
		return Metrics{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	if err := mj.Check(prog); err != nil {
		return Metrics{}, fmt.Errorf("%s: %w", w.Name, err)
	}

	var mask []bool
	var m Metrics
	m.TotalSites = mj.NumSites(prog)
	switch opts.Mode {
	case WithChord:
		r := static.Chord(prog)
		mask = r.Apply(prog)
		m.SafeSites = r.SafeSiteCount()
	case WithRcc:
		r, err := static.Rcc(prog)
		if err != nil {
			return Metrics{}, fmt.Errorf("%s: rcc: %w", w.Name, err)
		}
		mask = r.Apply(prog)
		m.SafeSites = r.SafeSiteCount()
	}

	// DisableArrayAfterRace mirrors the paper's measurement policy; the
	// workloads are race-free, so it only matters if a bug introduces a
	// race (where it keeps the run measurable rather than flooding).
	cfg := jrt.Config{Policy: jrt.Log, Mode: jrt.Free, DisableArrayAfterRace: true}
	if opts.Deterministic {
		cfg.Mode = jrt.Deterministic
		cfg.Seed = opts.Seed
	}
	var engine *core.Engine
	if opts.Mode != Uninstrumented {
		// The paper configuration: DefaultOptions plus DisableAfterRace.
		eopts := core.DefaultOptions()
		eopts.DisableAfterRace = true
		engine = core.NewEngine(eopts)
		cfg.Detector = engine
	}
	rt := jrt.NewRuntime(cfg)
	interp, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, Out: opts.Out, SiteNoCheck: mask})
	if err != nil {
		return Metrics{}, fmt.Errorf("%s: %w", w.Name, err)
	}

	start := time.Now()
	races, err := interp.Run()
	m.Elapsed = time.Since(start)
	if err != nil {
		return Metrics{}, fmt.Errorf("%s: run: %w", w.Name, err)
	}
	m.Races = len(races)
	m.Runtime = rt.Stats()
	if engine != nil {
		m.Engine = engine.Stats()
	}
	m.Commits, m.Aborts = interp.TMStats()
	return m, nil
}
