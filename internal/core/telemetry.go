package core

import (
	"time"

	"goldilocks/internal/obs"
)

// Telemetry returns the engine's telemetry bundle, nil when disabled.
func (e *Engine) Telemetry() *obs.Telemetry { return e.tel }

// RegisterMetrics binds the engine's observable state into reg: the
// work counters of Stats (including the SC1/SC2/SC3 short-circuit hits,
// separately), the event-list and GC gauges, the resilience counters,
// and — when telemetry is enabled — the per-rule fire counters, walk-
// depth histogram, and trace gauge. Everything is read at scrape time,
// so registration itself adds no cost to the detection paths.
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
	if e.tel != nil {
		e.tel.Register(reg)
	}
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
