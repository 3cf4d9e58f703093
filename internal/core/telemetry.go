package core

import (
	"fmt"
	"time"

	"goldilocks/internal/obs"
)

// RuleCounter is a detector that counts the lockset update rules its
// linearization fires: both Goldilocks engines, which agree on the
// counts for the same linearization.
type RuleCounter interface {
	// RuleFires returns the per-rule fire counts indexed 1..NumRules
	// (index 0 is always zero).
	RuleFires() [obs.NumRules + 1]uint64
}

// RuleFires returns, per lockset update rule, how many times the
// processed linearization triggered it: rule 1 per plain access
// checked, rule 8 per allocation, and the action's own rule per
// synchronization action (rule 9 once per commit). The counts are
// event-level, so they equal the SpecEngine's on the same
// linearization. Index 0 is always zero.
func (e *Engine) RuleFires() [obs.NumRules + 1]uint64 {
	var out [obs.NumRules + 1]uint64
	for i := 2; i <= obs.NumRules; i++ {
		out[i] = e.list.fires[i].Load()
	}
	for i := range e.stats {
		out[obs.RuleAccess] += e.stats[i].resets.Load()
	}
	return out
}

// WalkRuleHits returns, per rule, the applications during lazy walks
// that grew a lockset: which rules carry the evaluation work. Unlike
// RuleFires this depends on the representation (memoization and the
// short-circuits skip walks). Index 0 is always zero.
func (e *Engine) WalkRuleHits() [obs.NumRules + 1]uint64 {
	var out [obs.NumRules + 1]uint64
	for i := range e.stats {
		for r := 1; r <= obs.NumRules; r++ {
			out[r] += e.stats[i].walkHits[r].Load()
		}
	}
	return out
}

// Trace returns the engine's lockset trace hook. It starts disabled
// and costs the access path one atomic load until enabled.
func (e *Engine) Trace() *obs.TraceHook { return e.trace }

// RegisterMetrics binds the engine's observable state into reg: the
// work counters of Stats (including the SC1/SC2/SC3 short-circuit hits,
// separately), the event-list and GC gauges, the resilience counters,
// the per-rule fire and walk-hit counters, the walk-depth histogram,
// the shard-contention counter and the trace gauge. Everything is read
// at scrape time, so registration itself adds no cost to the detection
// paths.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	stat := func(name string, f func(Stats) float64) {
		reg.RegisterGaugeFunc("goldilocks_"+name, func() float64 { return f(e.Stats()) })
	}
	stat("accesses_checked_total", func(s Stats) float64 { return float64(s.AccessesChecked) })
	stat("pair_checks_total", func(s Stats) float64 { return float64(s.PairChecks) })
	stat("sc1_hits_total", func(s Stats) float64 { return float64(s.SC1Hits) })
	stat("sc2_hits_total", func(s Stats) float64 { return float64(s.SC2Hits) })
	stat("sc3_hits_total", func(s Stats) float64 { return float64(s.SC3Hits) })
	stat("xact_hits_total", func(s Stats) float64 { return float64(s.XactHits) })
	stat("hb_cache_hits_total", func(s Stats) float64 { return float64(s.HBCacheHits) })
	stat("full_walks_total", func(s Stats) float64 { return float64(s.FullWalks) })
	stat("walk_cells_total", func(s Stats) float64 { return float64(s.WalkCells) })
	stat("races_total", func(s Stats) float64 { return float64(s.Races) })
	stat("vars_tracked", func(s Stats) float64 { return float64(s.VarsTracked) })
	stat("vars_freed_total", func(s Stats) float64 { return float64(s.VarsFreed) })
	stat("events_enqueued_total", func(s Stats) float64 { return float64(s.EventsEnqueued) })
	stat("cells_collected_total", func(s Stats) float64 { return float64(s.CellsCollected) })
	stat("collections_total", func(s Stats) float64 { return float64(s.Collections) })
	stat("infos_advanced_total", func(s Stats) float64 { return float64(s.InfosAdvanced) })
	stat("panics_recovered_total", func(s Stats) float64 { return float64(s.PanicsRecovered) })
	stat("vars_quarantined_total", func(s Stats) float64 { return float64(s.VarsQuarantined) })
	stat("governor_rung", func(s Stats) float64 { return float64(s.GovernorRung) })
	stat("escalations_total", func(s Stats) float64 { return float64(s.Escalations) })
	stat("degraded_checks_total", func(s Stats) float64 { return float64(s.DegradedChecks) })
	stat("short_circuit_rate", Stats.ShortCircuitRate)
	stat("full_walk_rate", Stats.FullWalkRate)
	stat("avg_walk_cells", Stats.AvgWalkCells)
	stat("gc_reclaim_rate", Stats.GCReclaimRate)
	reg.RegisterGaugeFunc("goldilocks_list_len", func() float64 { return float64(e.ListLen()) })
	for i := 1; i <= obs.NumRules; i++ {
		rule := fmt.Sprintf("{rule=%q}", fmt.Sprint(i))
		reg.RegisterCounterFunc("goldilocks_rule_fires_total"+rule, func() uint64 { return e.RuleFires()[i] })
		reg.RegisterCounterFunc("goldilocks_walk_rule_hits_total"+rule, func() uint64 { return e.WalkRuleHits()[i] })
	}
	reg.RegisterHistogram("goldilocks_walk_depth_cells", &e.walkDepth)
	reg.RegisterCounter("goldilocks_shard_contention_total", &e.shardContention)
	reg.RegisterGaugeFunc("goldilocks_trace_buffered", func() float64 {
		trs, _ := e.trace.Snapshot()
		return float64(len(trs))
	})
}

// StartSampling registers time series for the event-list length and the
// cumulative GC-reclaimed cells and starts a sampler recording them
// every interval. The caller owns the returned sampler and should Stop
// it on shutdown.
func (e *Engine) StartSampling(reg *obs.Registry, interval time.Duration) *obs.Sampler {
	const points = 512
	listLen := reg.RegisterSeries("goldilocks_list_len_series", obs.NewSeries(points))
	reclaimed := reg.RegisterSeries("goldilocks_cells_collected_series", obs.NewSeries(points))
	return obs.NewSampler(interval, func() {
		listLen.Add(float64(e.ListLen()))
		reclaimed.Add(float64(e.list.collected.Load()))
	})
}
