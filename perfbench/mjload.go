package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/static"
)

// config is one way of running an MJ program. The timed configurations
// of the MJ workloads are the paper's columns (base, nostatic, chord);
// the traced run adds the rest so that busy times come from differences
// between configurations run back to back, never from summed timers.
type config int

const (
	cfgBase      config = iota // no detector: the uninstrumented column
	cfgNoop                    // runtime hooks into a detector that does nothing
	cfgNoStatic                // Goldilocks on every access
	cfgChordBase               // Chord's mask, no detector
	cfgChord                   // Chord's mask with Goldilocks: the paper's Chord column
	cfgTimed                   // Goldilocks behind the per-call timing wrapper
	numConfigs
)

var configNames = [numConfigs]string{"base", "noop", "nostatic", "chord_base", "chord", "timed"}

// hasEngine reports whether the configuration runs the Goldilocks engine.
func (c config) hasEngine() bool { return c == cfgNoStatic || c == cfgChord || c == cfgTimed }

// engineOptions is the detector configuration of every measured run: the
// paper's, which stops checking a variable after its first race.
func engineOptions() core.Options {
	o := core.DefaultOptions()
	o.DisableAfterRace = true
	return o
}

// mjProgram is one program of an MJ workload, parsed, checked and
// analysed in set-up.
type mjProgram struct {
	name string
	prog *mj.Program
	// chordProg is a second copy with Chord's result installed: applying
	// it marks fields and methods unchecked in the AST itself, so the
	// other configurations need a copy without it.
	chordProg *mj.Program
	mask      []bool // Chord's no-check sites
	// stableOutput is set when the program prints the same result under
	// every schedule, so outputs must agree across configurations.
	stableOutput bool
}

// schedDependentOutput names the programs whose printed result depends
// on the interleaving (work stealing, arrival order), so only their
// race verdict and error are checked.
var schedDependentOutput = map[string]bool{"hedc": true, "philo": true, "tsp": true}

// table1Params resizes programs from their Table 1 parameters so that
// every program takes roughly 60-400 ms uninstrumented on a 2-CPU box.
// The short ones (philo, tsp, moldyn, raytracer) grow, because timer and
// scheduler noise would dominate them; the long ones (colt, series, sor,
// sor2) shrink, so that a run fits more passes and each program's median
// rests on more samples.
var table1Params = map[string]map[string]int{
	"philo":     {"ROUNDS": 1200},
	"tsp":       {"CITIES": 9},
	"moldyn":    {"SIZE": 64, "STEPS": 14},
	"raytracer": {"SIZE": 48, "FRAMES": 12},
	"colt":      {"SIZE": 16, "REPS": 4},
	"series":    {"TERMS": 1100},
	"sor":       {"ROWS": 36, "COLS": 36, "ITERS": 12},
	"sor2":      {"ROWS": 26, "COLS": 26, "ITERS": 12},
}

// multisetThreads and multisetOps size the Table 3 workload: the top of
// the paper's thread ladder, with enough operations per thread that one
// uninstrumented run takes about a second.
const (
	multisetThreads = 500
	multisetOps     = 40
)

// mjSources returns the (name, source) pairs of a workload. small selects
// test-scale parameters.
func mjSources(workload string, small bool) ([][2]string, error) {
	var ws []bench.Workload
	switch workload {
	case "table1":
		ws = bench.Table1Workloads()
		for _, w := range ws {
			for k, v := range table1Params[w.Name] {
				w.Full[k] = v
			}
		}
	case "multiset_txn":
		ops := multisetOps
		if small {
			ops = 2
		}
		ws = []bench.Workload{bench.MultisetWorkload(multisetThreads, ops)}
		small = false // the multiset takes its size from ops alone
	default:
		return nil, fmt.Errorf("unknown MJ workload %q", workload)
	}
	out := make([][2]string, len(ws))
	for i, w := range ws {
		out[i] = [2]string{w.Name, w.Instantiate(!small)}
	}
	return out, nil
}

// mjSetupRepeats is how many times set-up runs before each pass. It
// takes milliseconds, so a single timing would catch whatever the box
// was doing in that instant; setup_s is the median of every repetition
// of the run. The heap is collected before each repetition, so that a
// collection of the previous pass's garbage does not land inside one.
const mjSetupRepeats = 10

// mjSetup is what set-up produces for an MJ workload, with the time
// spent in each front-end layer.
type mjSetup struct {
	progs      []*mjProgram
	parseCheck time.Duration
	chord      time.Duration
}

func setupMJ(sources [][2]string) (*mjSetup, error) {
	s := &mjSetup{}
	parse := func(name, src string) (*mj.Program, error) {
		start := time.Now()
		defer func() { s.parseCheck += time.Since(start) }()
		prog, err := mj.Parse(src)
		if err == nil {
			err = mj.Check(prog)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return prog, nil
	}
	for _, src := range sources {
		prog, err := parse(src[0], src[1])
		if err != nil {
			return nil, err
		}
		chordProg, err := parse(src[0], src[1])
		if err != nil {
			return nil, err
		}
		start := time.Now()
		mask := static.Chord(chordProg).Apply(chordProg)
		s.chord += time.Since(start)
		s.progs = append(s.progs, &mjProgram{
			name: src[0], prog: prog, chordProg: chordProg, mask: mask,
			stableOutput: !schedDependentOutput[src[0]],
		})
	}
	return s, nil
}

// execution is one run of one program under one configuration.
type execution struct {
	elapsed time.Duration
	cpu     time.Duration
	races   int
	out     string
	err     error

	rt              jrt.Stats
	eng             core.Stats // zero without an engine
	listLen         int
	commits, aborts uint64
	mem             memDelta // traced runs only
}

// run executes p once under c. A timing wrapper is needed for cfgTimed.
// The heap is collected before the clock starts so that garbage from the
// previous run is not charged to this one.
func (p *mjProgram) run(c config, timer *timingDetector, traced bool) execution {
	cfg := jrt.Config{Policy: jrt.Log, Mode: jrt.Free, DisableArrayAfterRace: true}
	var eng *core.Engine
	if c.hasEngine() {
		eng = core.NewEngine(engineOptions())
		cfg.Detector = eng
	}
	switch c {
	case cfgNoop:
		cfg.Detector = noopDetector{}
	case cfgTimed:
		timer.inner = eng
		cfg.Detector = timer
	}
	prog, mask := p.prog, []bool(nil)
	if c == cfgChordBase || c == cfgChord {
		prog, mask = p.chordProg, p.mask
	}
	rt := jrt.NewRuntime(cfg)
	var out bytes.Buffer
	in, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, Out: &out, SiteNoCheck: mask})
	if err != nil {
		return execution{err: err}
	}
	runtime.GC()
	var before *memProbe
	if traced {
		before = readMem()
	}
	cpu0 := cpuTime()
	start := time.Now()
	races, err := in.Run()
	ex := execution{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	if traced {
		ex.mem = readMem().since(before)
	}
	ex.races, ex.out, ex.err = len(races), out.String(), err
	ex.rt = rt.Stats()
	if eng != nil {
		ex.eng = eng.Stats()
		ex.listLen = eng.ListLen()
	}
	ex.commits, ex.aborts = in.TMStats()
	return ex
}

// pass is one round of every program under every configuration of the
// run, each program's configurations back to back.
type pass struct {
	wall  [numConfigs]time.Duration // Σ over programs
	cpu   [numConfigs]time.Duration
	execs [numConfigs][]execution // indexed like the workload's programs
}

// mjRun drives an MJ workload for the requested time.
type mjRun struct {
	progs   []*mjProgram
	configs []config
	rng     *rand.Rand
	rot0    int // seeded start of the configuration rotation
	traced  bool
	timer   *timingDetector
	ops     *opCounter
	golden  map[string]string // first output of each stable program
}

// check validates one execution: it ran without error, found no race
// (every workload program is race-free), and printed the same result as
// every other run of the program when that result is schedule-free.
func (r *mjRun) check(p *mjProgram, c config, ex execution) {
	var problem string
	switch {
	case ex.err != nil:
		problem = ex.err.Error()
	case ex.races != 0:
		problem = fmt.Sprintf("%d races reported on a race-free program", ex.races)
	case p.stableOutput:
		if want, ok := r.golden[p.name]; !ok {
			r.golden[p.name] = ex.out
		} else if !sameOutput(ex.out, want) {
			problem = fmt.Sprintf("output %q differs from %q", ex.out, want)
		}
	}
	r.ops.note(problem == "", fmt.Sprintf("%s/%s: %s", p.name, configNames[c], problem))
}

// sameOutput compares two program outputs token by token. Numbers may
// differ in their last digits: parallel reductions (montecarlo, series)
// add floating-point terms in schedule order.
func sameOutput(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		x, errA := strconv.ParseFloat(ta[i], 64)
		y, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil || math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// onePass runs pass number n. Which configuration of a program runs
// first cycles with the pass and the program, from a seeded start, so
// every run spreads the orders evenly: the multiset's configurations run
// measurably faster after some configurations than after others.
func (r *mjRun) onePass(n int) pass {
	var ps pass
	for c := range ps.execs {
		ps.execs[c] = make([]execution, len(r.progs))
	}
	for _, i := range r.rng.Perm(len(r.progs)) {
		p := r.progs[i]
		rot := r.rot0 + n + i
		for k := range r.configs {
			c := r.configs[(rot+k)%len(r.configs)]
			ex := p.run(c, r.timer, r.traced)
			r.check(p, c, ex)
			ps.execs[c][i] = ex
			ps.wall[c] += ex.elapsed
			ps.cpu[c] += ex.cpu
		}
	}
	return ps
}

// passes runs whole passes until the next one would end past the
// deadline, and always at least minPasses. before runs ahead of each
// pass, inside the time budget.
func (r *mjRun) passes(seconds float64, minPasses int, before func()) []pass {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var out []pass
	for {
		t0 := time.Now()
		before()
		out = append(out, r.onePass(len(out)))
		if len(out) >= minPasses && time.Since(start)+time.Since(t0) > budget {
			return out
		}
	}
}

// each maps f over xs: the samples a median is taken of.
func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func secs(d time.Duration) float64 { return d.Seconds() }

// runMJWorkload runs table1 or multiset_txn and fills rep.
func runMJWorkload(workload string, o options, rep *report) error {
	sources, err := mjSources(workload, o.small)
	if err != nil {
		return err
	}
	// The first set-up's programs are the ones run; later repetitions
	// are only timed, and only their durations are kept.
	var s *mjSetup
	var setupTimes, parseTimes, chordTimes []float64
	var setupErr error
	setup := func() {
		for i := 0; i < mjSetupRepeats && setupErr == nil; i++ {
			runtime.GC()
			start := time.Now()
			var one *mjSetup
			if one, setupErr = setupMJ(sources); setupErr == nil {
				setupTimes = append(setupTimes, time.Since(start).Seconds())
				parseTimes = append(parseTimes, secs(one.parseCheck))
				chordTimes = append(chordTimes, secs(one.chord))
				if s == nil {
					s = one
				}
			}
		}
	}
	if setup(); setupErr != nil {
		return setupErr
	}
	rep.engine = engineOptions()

	rng := rand.New(rand.NewSource(o.seed))
	r := &mjRun{
		progs: s.progs, rng: rng, rot0: rng.Intn(int(numConfigs)), traced: o.trace,
		ops: &rep.ops, golden: map[string]string{},
		configs: []config{cfgBase, cfgNoStatic, cfgChord},
	}
	if o.trace {
		r.timer = &timingDetector{}
		r.configs = []config{cfgBase, cfgNoop, cfgNoStatic, cfgChordBase, cfgChord, cfgTimed}
	}
	// A traced run needs three passes for its ledger: with one or two,
	// each median is a mean, medians of differences equal differences of
	// medians, and the parts add up by construction.
	minPasses := 1
	if o.trace {
		minPasses = 3
	}
	ps := r.passes(o.seconds, minPasses, setup)
	if setupErr != nil {
		return setupErr
	}

	elapsed := func(ex execution) float64 { return secs(ex.elapsed) }
	wall := medianSum(ps, cfgNoStatic, elapsed)
	abs := absolute{
		wall:  wall,
		base:  medianSum(ps, cfgBase, elapsed),
		chord: medianSum(ps, cfgChord, elapsed),
		eventsPerS: ratio(medianSum(ps, cfgNoStatic, func(ex execution) float64 {
			return mjEvents(workload, ex)
		}), wall),
		cpu: medianSum(ps, cfgNoStatic, func(ex execution) float64 { return secs(ex.cpu) }),
	}
	if !o.trace {
		rep.set("setup_s", "s", median(setupTimes))
		rep.set("slowdown", "x", median(each(ps, func(p pass) float64 {
			return ratio(secs(p.wall[cfgNoStatic]), secs(p.wall[cfgBase]))
		})))
		rep.set("chord_slowdown", "x", median(each(ps, func(p pass) float64 {
			return ratio(secs(p.wall[cfgChord]), secs(p.wall[cfgBase]))
		})))
		rep.set("max_rss_mb", "MB", maxRSSMB())
		rep.note("%v", abs)
		return nil
	}

	abs.set(rep)
	rep.set("mj.parse_check_s", "s", median(parseTimes))
	rep.set("static.chord_s", "s", median(chordTimes))
	mjLayerMetrics(workload, ps, r.timer, rep)
	return nil
}

// programMedians returns each program's median of f across passes
// under c.
func programMedians(ps []pass, c config, f func(execution) float64) []float64 {
	out := make([]float64, len(ps[0].execs[c]))
	for i := range out {
		out[i] = median(each(ps, func(p pass) float64 { return f(p.execs[c][i]) }))
	}
	return out
}

// medianSum adds up the programMedians. A machine slowdown that hits one
// pass then moves each program's median by at most one rank, where a sum
// per pass would carry it whole.
func medianSum(ps []pass, c config, f func(execution) float64) float64 {
	total := 0.0
	for _, m := range programMedians(ps, c, f) {
		total += m
	}
	return total
}

// mjEvents is the work count e2e.events_per_s divides by: the detector
// actions of an execution for table1, and for the multiset its commits,
// which the program fixes where access counts vary with the schedule.
func mjEvents(workload string, ex execution) float64 {
	if workload == "multiset_txn" {
		return float64(ex.commits)
	}
	return float64(ex.rt.CheckedAccesses + ex.rt.SyncOps)
}

// sumStats adds the engine counters of a pass's executions.
func sumStats(execs []execution) (s core.Stats, listLen int) {
	for _, ex := range execs {
		e := ex.eng
		s.AccessesChecked += e.AccessesChecked
		s.PairChecks += e.PairChecks
		s.SC1Hits += e.SC1Hits
		s.SC2Hits += e.SC2Hits
		s.SC3Hits += e.SC3Hits
		s.XactHits += e.XactHits
		s.HBCacheHits += e.HBCacheHits
		s.FastPathHits += e.FastPathHits
		s.FullWalks += e.FullWalks
		s.WalkCells += e.WalkCells
		s.EventsEnqueued += e.EventsEnqueued
		s.CellsCollected += e.CellsCollected
		s.Collections += e.Collections
		if e.GovernorRung > s.GovernorRung {
			s.GovernorRung = e.GovernorRung
		}
		listLen += ex.listLen
	}
	return s, listLen
}

// coreRates reports the engine's tier counters, shared by the MJ and
// service workloads.
func coreRates(s core.Stats, listLen int, rep *report) {
	rep.set("core.sc_rate", "ratio", s.ShortCircuitRate())
	rep.set("core.fastpath_rate", "ratio", s.FastPathRate())
	rep.set("core.full_walk_rate", "ratio", s.FullWalkRate())
	rep.set("core.avg_walk_cells", "cells", s.AvgWalkCells())
	rep.set("core.pair_checks_per_access", "ratio", ratio(float64(s.PairChecks), float64(s.AccessesChecked)))
	rep.set("core.hb_cache_hit_rate", "ratio", ratio(float64(s.HBCacheHits), float64(s.PairChecks)))
	rep.set("core.xact_hits", "count", float64(s.XactHits))
	rep.set("core.gc_collections", "count", float64(s.Collections))
	rep.set("core.gc_reclaim_rate", "ratio", s.GCReclaimRate())
	rep.set("core.list_len_end", "cells", float64(listLen))
	rep.set("core.governor_rung", "rung", float64(s.GovernorRung))
}

// mjLayerMetrics derives the per-layer metrics of a traced MJ run.
func mjLayerMetrics(workload string, ps []pass, timer *timingDetector, rep *report) {
	med := func(c config) float64 { return median(each(ps, func(p pass) float64 { return secs(p.wall[c]) })) }
	diff := func(a, b config) float64 {
		return median(each(ps, func(p pass) float64 { return secs(p.wall[a] - p.wall[b]) }))
	}
	last := ps[len(ps)-1]
	var accesses, syncOps, checked, commits, aborts float64
	var mem memDelta
	for _, ex := range last.execs[cfgNoStatic] {
		accesses += float64(ex.rt.TotalAccesses)
		checked += float64(ex.rt.CheckedAccesses)
		syncOps += float64(ex.rt.SyncOps)
		commits += float64(ex.commits)
		aborts += float64(ex.aborts)
		mem.add(ex.mem)
	}
	var chordTotal, chordChecked float64
	for _, ex := range last.execs[cfgChord] {
		chordTotal += float64(ex.rt.TotalAccesses)
		chordChecked += float64(ex.rt.CheckedAccesses)
	}

	base, hook, self := med(cfgBase), diff(cfgNoop, cfgBase), diff(cfgNoStatic, cfgNoop)
	l := ledger{wall: med(cfgNoStatic), parts: []ledgerPart{{"base", base}, {"hook", hook}, {"core", self}}}
	rep.set("mj.accesses", "count", accesses)
	rep.set("mj.base_ns_per_access", "ns", 1e9*ratio(base, accesses))
	rep.set("mj.chord_base_wall_s", "s", med(cfgChordBase))
	rep.set("static.checked_access_frac", "ratio", ratio(chordChecked, chordTotal))
	rep.set("jrt.hook_s", "s", hook)
	for k := 0; k < numCalls; k++ {
		rep.set("jrt.calls_"+callNames[k], "count", float64(timer.lat[k].count())/float64(len(ps)))
	}
	rep.set("jrt.sync_ops", "count", syncOps)
	rep.set("core.self_s", "s", self)
	for _, k := range []int{callRead, callWrite, callSync, callCommit} {
		rep.set("core."+callNames[k]+"_p50_ns", "ns", timer.lat[k].quantile(0.50))
		rep.set("core."+callNames[k]+"_p99_ns", "ns", timer.lat[k].quantile(0.99))
	}
	stats, listLen := sumStats(last.execs[cfgNoStatic])
	coreRates(stats, listLen, rep)
	rep.set("stm.commits", "count", commits)
	rep.set("stm.aborts", "count", aborts)
	rep.set("stm.commit_ratio", "ratio", ratio(commits, commits+aborts))
	rep.set("stm.accesses_per_commit", "count", ratio(accesses, commits))
	rep.set("goruntime.alloc_bytes_per_event", "B", ratio(float64(mem.allocBytes), checked+syncOps))
	rep.set("goruntime.gc_cycles", "count", float64(mem.gcCycles))
	rep.set("goruntime.gc_pause_ms", "ms", float64(mem.gcPause)/float64(time.Millisecond))
	rep.set("ledger.unattributed_s", "s", l.unattributed())
	rep.set("ledger.chord_mask_interp_s", "s", diff(cfgBase, cfgChordBase))
	rep.set("trace.overhead_frac", "ratio", median(each(ps, func(p pass) float64 {
		return ratio(secs(p.wall[cfgTimed]), secs(p.wall[cfgNoStatic])) - 1
	})))

	rep.note("ledger %s (medians over %d passes): %v", workload, len(ps), l)
	rep.note("finding: Chord mask without a detector %.3fs vs unmasked uninstrumented %.3fs (median difference %+.3fs per pass)",
		med(cfgChordBase), base, diff(cfgBase, cfgChordBase))
	for _, c := range []config{cfgBase, cfgNoop, cfgNoStatic, cfgChordBase, cfgChord, cfgTimed} {
		rep.note("  %-10s median %.3fs", configNames[c], med(c))
	}
}
