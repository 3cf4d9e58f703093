package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/server"
)

// The ingest benchmark answers the question the stage histograms were
// built for: where does an event's end-to-end latency go between a
// client and a verdict? It runs the same synthetic workload three ways
// — "local" applies actions directly to an engine (epoch fast path on),
// "local_lockset" does the same with the fast path off (the pure
// Goldilocks apply point), and "remote" streams through an in-process
// goldilocksd over loopback TCP — with a tracer on every side, and
// reports events/sec plus per-stage p50/p99 from the tracer's
// histograms. local vs local_lockset is the epoch fast path's win at
// the apply point; local vs remote is the cost of the service pipeline.

// IngestConfig sizes the ingest benchmark.
type IngestConfig struct {
	// Sessions is how many concurrent client sessions stream. Default 4.
	Sessions int
	// Events is how many actions each session streams. Default 20000.
	Events int
	// SampleEvery is the tracer sampling interval (rounded up to a power
	// of two). Default 8 — dense enough for stable p99s on a short run.
	SampleEvery int
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Events <= 0 {
		c.Events = 20000
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 8
	}
	return c
}

// IngestStage is one stage's latency summary in the report.
type IngestStage struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`
}

// IngestSide is one quadrant of the comparison.
type IngestSide struct {
	Events       int           `json:"events"`
	ElapsedMS    float64       `json:"elapsed_ms"`
	EventsPerSec float64       `json:"events_per_sec"`
	Stages       []IngestStage `json:"stages"`
}

// IngestReport is the machine-readable output behind BENCH_ingest.json.
type IngestReport struct {
	NumCPU           int        `json:"num_cpu"`
	GoVersion        string     `json:"go_version"`
	GitCommit        string     `json:"git_commit"`
	Sessions         int        `json:"sessions"`
	EventsPerSession int        `json:"events_per_session"`
	SampleEvery      int        `json:"sample_every"`
	Local            IngestSide `json:"local"`
	LocalLockset     IngestSide `json:"local_lockset"`
	Remote           IngestSide `json:"remote"`
}

// ingestAction returns the i-th action of session worker w's workload:
// a lock-protected read-modify-write loop over a per-session variable,
// the service's steady-state shape (rules fire on acquire/release, no
// races, nonempty lockset transfers). The per-session variable stays
// thread-owned throughout, so the data accesses are exactly the traffic
// the epoch fast path exists for.
func ingestAction(w, i int) event.Action {
	t := event.Tid(w*2 + 1)
	lock := event.Addr(10 + w)
	obj := event.Addr(1000 + w)
	switch i % 4 {
	case 0:
		return event.Acquire(t, lock)
	case 1:
		return event.Write(t, obj, 0)
	case 2:
		return event.Read(t, obj, 0)
	default:
		return event.Release(t, lock)
	}
}

// stageSummaries extracts the nonempty stages of a tracer.
func stageSummaries(tr *obs.Tracer) []IngestStage {
	var out []IngestStage
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		h := tr.StageHist(st)
		if h == nil || h.Count() == 0 {
			continue
		}
		out = append(out, IngestStage{
			Stage: st.String(), Count: h.Count(),
			P50US: h.Quantile(0.50), P99US: h.Quantile(0.99), MeanUS: h.Mean(),
		})
	}
	return out
}

// ingestLocal runs the direct-apply side with the given fast-path
// setting: one engine per session, direct Step calls, the apply stage
// timed through the same tracer the daemon would use.
func ingestLocal(cfg IngestConfig, fastPath bool) IngestSide {
	total := cfg.Sessions * cfg.Events
	tracer := obs.NewTracer(cfg.SampleEvery)
	start := time.Now()
	for w := 0; w < cfg.Sessions; w++ {
		opts := core.DefaultOptions()
		opts.FastPath = fastPath
		eng := core.NewEngine(opts)
		for i := 0; i < cfg.Events; i++ {
			a := ingestAction(w, i)
			if tracer.Sample() {
				t0 := time.Now()
				eng.Step(a)
				tracer.Observe(obs.StageApply, time.Since(t0))
			} else {
				eng.Step(a)
			}
		}
	}
	elapsed := time.Since(start)
	return IngestSide{
		Events:       total,
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		EventsPerSec: float64(total) / elapsed.Seconds(),
		Stages:       stageSummaries(tracer),
	}
}

// ingestRemote runs the loopback-daemon side: an in-process
// goldilocksd, one traced fleet of clients streaming the same workload.
func ingestRemote(cfg IngestConfig) (IngestSide, error) {
	total := cfg.Sessions * cfg.Events
	serverTracer := obs.NewTracer(cfg.SampleEvery)
	clientTracer := obs.NewTracer(cfg.SampleEvery)
	srv, err := server.New("127.0.0.1:0", server.Config{
		Registry: obs.NewRegistry(),
		Tracer:   serverTracer,
	})
	if err != nil {
		return IngestSide{}, err
	}
	defer srv.Close()

	ctx := context.Background()
	start := time.Now()
	errs := make(chan error, cfg.Sessions)
	for w := 0; w < cfg.Sessions; w++ {
		go func(w int) {
			c, err := server.DialContext(ctx, srv.Addr(), fmt.Sprintf("ingest-%d", w),
				server.DialConfig{Tracer: clientTracer})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < cfg.Events; i++ {
				if err := c.Send(ingestAction(w, i)); err != nil {
					c.Abandon()
					errs <- err
					return
				}
			}
			_, err = c.Close()
			errs <- err
		}(w)
	}
	var firstErr error
	for w := 0; w < cfg.Sessions; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return IngestSide{}, firstErr
	}
	elapsed := time.Since(start)

	// The client and server tracers cover disjoint stages, so their
	// union is the remote pipeline.
	return IngestSide{
		Events:       total,
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		EventsPerSec: float64(total) / elapsed.Seconds(),
		Stages:       append(stageSummaries(clientTracer), stageSummaries(serverTracer)...),
	}, nil
}

// Ingest runs the three-way ingest comparison and returns the report.
// progress receives one line per phase.
func Ingest(cfg IngestConfig, progress func(string)) (IngestReport, error) {
	cfg = cfg.withDefaults()
	rep := IngestReport{
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Sessions: cfg.Sessions, EventsPerSession: cfg.Events, SampleEvery: cfg.SampleEvery,
	}
	report := func(name string, sd IngestSide) {
		progress(fmt.Sprintf("ingest: %-13s %d events in %.0fms (%.0f events/sec)",
			name, sd.Events, sd.ElapsedMS, sd.EventsPerSec))
	}

	rep.Local = ingestLocal(cfg, true)
	report("local", rep.Local)
	rep.LocalLockset = ingestLocal(cfg, false)
	report("local-lockset", rep.LocalLockset)

	var err error
	if rep.Remote, err = ingestRemote(cfg); err != nil {
		return rep, err
	}
	report("remote", rep.Remote)
	return rep, nil
}

// FormatIngest renders the report as the text table racebench prints
// alongside the JSON artifact.
func FormatIngest(rep IngestReport) string {
	s := fmt.Sprintf("Ingest pipeline (NumCPU=%d, %s, %d sessions x %d events, sample 1/%d)\n",
		rep.NumCPU, rep.GoVersion, rep.Sessions, rep.EventsPerSession, rep.SampleEvery)
	side := func(name string, sd IngestSide) string {
		out := fmt.Sprintf("%-14s %.0f events/sec\n", name, sd.EventsPerSec)
		out += fmt.Sprintf("  %-18s %8s %10s %10s %10s\n", "stage", "count", "p50(us)", "p99(us)", "mean(us)")
		for _, st := range sd.Stages {
			out += fmt.Sprintf("  %-18s %8d %10.1f %10.1f %10.1f\n", st.Stage, st.Count, st.P50US, st.P99US, st.MeanUS)
		}
		return out
	}
	s += side("local (epoch)", rep.Local) + side("local-lockset", rep.LocalLockset)
	s += side("remote", rep.Remote)
	if rep.LocalLockset.EventsPerSec > 0 {
		s += fmt.Sprintf("apply speedup (epoch/lockset): %.2fx\n",
			rep.Local.EventsPerSec/rep.LocalLockset.EventsPerSec)
	}
	return s
}

// MarshalIngest serializes the report for BENCH_ingest.json.
func MarshalIngest(rep IngestReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
