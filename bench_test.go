// Package goldilocks_bench holds the top-level benchmark harness: one
// benchmark per evaluation artifact of the paper (Tables 1-3, Figures
// 6-7), the ablation benchmarks for the design choices called out in
// DESIGN.md, and detector microbenchmarks.
//
// Run with: go test -bench=. -benchmem
//
// The Table benchmarks time test-scale workload instances (full-scale
// numbers are produced by cmd/racebench, which runs each configuration
// once rather than b.N times).
package goldilocks_bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors"
	"goldilocks/internal/event"
	"goldilocks/internal/explore"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/obs"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// BenchmarkTable1 times every workload in every Table 1 configuration.
func BenchmarkTable1(b *testing.B) {
	for _, w := range bench.Table1Workloads() {
		for _, mode := range []bench.Mode{bench.Uninstrumented, bench.NoStatic, bench.WithChord, bench.WithRcc} {
			b.Run(w.Name+"/"+string(mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(w, bench.RunOptions{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					if m.Races != 0 {
						b.Fatalf("races = %d", m.Races)
					}
				}
			})
		}
	}
}

// BenchmarkTable2 times the coverage-measurement runs of Table 2 (the
// deterministic instrumented executions under each static analysis).
func BenchmarkTable2(b *testing.B) {
	for _, w := range bench.Table1Workloads() {
		for _, mode := range []bench.Mode{bench.WithChord, bench.WithRcc} {
			b.Run(w.Name+"/"+string(mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.Run(w, bench.RunOptions{Mode: mode, Deterministic: true, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3 times the transactional Multiset against the
// uninstrumented baseline for the paper's thread counts (test scale).
func BenchmarkTable3(b *testing.B) {
	for _, threads := range []int{5, 10, 20, 50} {
		for _, mode := range []bench.Mode{bench.Uninstrumented, bench.NoStatic} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, mode), func(b *testing.B) {
				w := bench.MultisetWorkload(threads, 6)
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(w, bench.RunOptions{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					if m.Races != 0 {
						b.Fatalf("races = %d", m.Races)
					}
				}
			})
		}
	}
}

// BenchmarkFigure6 and BenchmarkFigure7 time the spec-engine lockset
// evolution replays behind the two figures.
func BenchmarkFigure6(b *testing.B) {
	tr := scenarios.Ownership().Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rs := detect.RunTrace(core.NewSpecEngine(), tr); len(rs) != 0 {
			b.Fatal("race on Example 2")
		}
	}
}

// BenchmarkFigure7 replays the Example 3 transaction trace.
func BenchmarkFigure7(b *testing.B) {
	tr := scenarios.TxList().Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rs := detect.RunTrace(core.NewSpecEngine(), tr); len(rs) != 0 {
			b.Fatal("race on Example 3")
		}
	}
}

// traceCorpus builds a reusable set of random traces for detector
// microbenchmarks.
func traceCorpus(n int, cfg tracegen.Config) []*event.Trace {
	out := make([]*event.Trace, n)
	for i := range out {
		out[i] = tracegen.FromSeedConfig(int64(i), cfg)
	}
	return out
}

// BenchmarkDetectorComparison replays identical traces through
// Goldilocks (optimized and spec), the vector-clock detector, and the
// Eraser-style baselines — the cost-per-action comparison behind the
// paper's "precision does not cost performance" claim.
func BenchmarkDetectorComparison(b *testing.B) {
	cfg := tracegen.Default()
	cfg.Steps = 400
	traces := traceCorpus(20, cfg)
	actions := 0
	for _, tr := range traces {
		actions += tr.Len()
	}
	for _, e := range detectors.All() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					detect.RunTrace(e.New(core.DefaultOptions()), tr)
				}
			}
			b.ReportMetric(float64(actions), "actions/op")
		})
	}
}

// BenchmarkAblationShortCircuits measures what the three short-circuit
// checks and the transactions check buy on a lock-heavy trace mix.
func BenchmarkAblationShortCircuits(b *testing.B) {
	cfg := tracegen.Default()
	cfg.Steps = 400
	cfg.SyncBias = 0.6
	traces := traceCorpus(20, cfg)
	configs := map[string]func(*core.Options){
		"all":    func(o *core.Options) {},
		"noSC1":  func(o *core.Options) { o.SC1 = false },
		"noSC2":  func(o *core.Options) { o.SC2 = false },
		"noSC3":  func(o *core.Options) { o.SC3 = false },
		"noXact": func(o *core.Options) { o.XactSC = false },
		"none": func(o *core.Options) {
			o.SC1, o.SC2, o.SC3, o.XactSC = false, false, false, false
		},
	}
	for name, tweak := range configs {
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			tweak(&opts)
			b.ReportAllocs()
			var walked uint64
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					e := core.NewEngine(opts)
					detect.RunTrace(e, tr)
					walked += e.Stats().WalkCells
				}
			}
			b.ReportMetric(float64(walked)/float64(b.N), "cells-walked/op")
		})
	}
}

// BenchmarkAblationLazyGC measures the event-list garbage collector and
// partially-eager evaluation under a long-running sync-heavy load.
func BenchmarkAblationLazyGC(b *testing.B) {
	mkTrace := func() *event.Trace {
		bld := event.NewBuilder()
		bld.Fork(1, 2)
		bld.Write(1, 10, 0) // early access pins the list without eager advance
		for i := 0; i < 4000; i++ {
			bld.Acquire(1, 20)
			bld.Release(1, 20)
			if i%100 == 99 {
				bld.Acquire(2, 20)
				bld.Read(2, 10, 0)
				bld.Release(2, 20)
			}
		}
		return bld.Trace()
	}
	tr := mkTrace()
	configs := map[string]core.Options{}
	eager := core.DefaultOptions()
	eager.GCThreshold = 512
	eager.GCTrimFraction = 0.25
	configs["gc+eager"] = eager
	noEager := eager
	noEager.PartialEager = false
	configs["gc-noeager"] = noEager
	noGC := core.DefaultOptions()
	noGC.GCThreshold = 0
	configs["nogc"] = noGC
	for name, opts := range configs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var retained int
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(opts)
				if rs := detect.RunTrace(e, tr); len(rs) != 0 {
					b.Fatal("unexpected race")
				}
				retained = e.ListLen()
			}
			b.ReportMetric(float64(retained), "cells-retained")
		})
	}
}

// BenchmarkAblationTxnAware compares treating transactions as
// high-level commit actions against exposing their lock-based
// implementation to the detector (the paper reports the latter costs
// more than 10x on Multiset).
func BenchmarkAblationTxnAware(b *testing.B) {
	cases := map[string]bench.Workload{
		"commit-aware":   bench.MultisetWorkload(5, 6),
		"lock-oblivious": bench.MultisetLockWorkload(5, 6),
	}
	for name, w := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(w, bench.RunOptions{Mode: bench.NoStatic})
				if err != nil {
					b.Fatal(err)
				}
				if m.Races != 0 {
					b.Fatalf("races = %d", m.Races)
				}
			}
		})
	}
}

// BenchmarkEngineHotPaths microbenchmarks the per-access cost of the
// optimized engine in the regimes that matter: same-thread re-access
// (SC1), lock-disciplined sharing (SC2), and cross-thread handoff (full
// lockset computation).
func BenchmarkEngineHotPaths(b *testing.B) {
	b.Run("sameThread", func(b *testing.B) {
		e := core.New()
		e.Write(1, 10, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Read(1, 10, 0)
		}
	})
	b.Run("lockDiscipline", func(b *testing.B) {
		e := core.New()
		e.Sync(event.Fork(1, 2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := event.Tid(1 + i%2)
			e.Sync(event.Acquire(t, 20))
			e.Write(t, 10, 0)
			e.Sync(event.Release(t, 20))
		}
	})
	b.Run("volatileHandoff", func(b *testing.B) {
		e := core.New()
		e.Sync(event.Fork(1, 2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := event.Tid(1 + i%2)
			e.Write(t, 10, 0)
			e.Sync(event.VolatileWrite(t, 1, 0))
			u := event.Tid(1 + (i+1)%2)
			e.Sync(event.VolatileRead(u, 1, 0))
		}
	})
	// commit20: a 20-variable transaction (10 reads, 10 writes) on an
	// engine already warmed by commits of the same shape, so every
	// access replaces an existing record: one list slot plus 20
	// per-variable checks (Section 5.3's price).
	b.Run("commit20", func(b *testing.B) {
		e := core.New()
		for u := event.Tid(2); u <= 4; u++ {
			e.Sync(event.Fork(1, u))
		}
		reads, writes := txnSets(0, 20)
		for i := 0; i < 64; i++ {
			e.Commit(event.Tid(1+i%4), reads, writes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Commit(event.Tid(1+i%4), reads, writes)
		}
	})
	// walkCommits: the lazy lockset of a plain write evaluated over N
	// commit cells by eight threads over a pool of 64 variables. The
	// walked lockset passes 64 elements (eight threads plus the pool),
	// and each cell probes its 20 variables.
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("walkCommits/cells=%d", n), func(b *testing.B) {
			e := core.New()
			for u := event.Tid(2); u <= 8; u++ {
				e.Sync(event.Fork(1, u))
			}
			e.Write(1, 10, 0)
			for i := 0; i < n; i++ {
				reads, writes := txnSets(i*7%64, 20)
				e.Sync(event.Commit(event.Tid(1+i%8), reads, writes))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.WriteLockset(10, 0).Len() <= 64 {
					b.Fatal("walked lockset stayed small")
				}
			}
		})
	}
}

// txnSets returns the read and write sets of a transaction over n
// consecutive variables of a 64-variable pool (fields of objects
// 100-107), starting at index from: the first half read, the second
// half written.
func txnSets(from, n int) (reads, writes []event.Variable) {
	for i := 0; i < n; i++ {
		k := (from + i) % 64
		v := event.Variable{Obj: event.Addr(100 + k/8), Field: event.FieldID(k % 8)}
		if i < n/2 {
			reads = append(reads, v)
		} else {
			writes = append(writes, v)
		}
	}
	return reads, writes
}

// BenchmarkParallelAccess measures whether disjoint-variable accesses
// really proceed in parallel (the KL(o,d) claim of Section 5): each
// worker hammers its own variable under its own lock, so the only
// shared state is the engine's own concurrency skeleton (sharded
// variable table, lock-free tail snapshots, per-thread lock records).
// Throughput should rise near-linearly with GOMAXPROCS; before the
// de-serialization refactor it was flat. The "shared" variant is the
// opposite extreme — every worker on one variable — and is expected to
// serialize on that variable's own mutex.
func BenchmarkParallelAccess(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("disjoint/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			e := core.New()
			var nextWorker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := nextWorker.Add(1)
				t := event.Tid(id)
				obj := event.Addr(1000 + id)
				i := 0
				for pb.Next() {
					e.Write(t, obj, event.FieldID(i%4))
					e.Read(t, obj, event.FieldID(i%4))
					i++
				}
			})
		})
		b.Run(fmt.Sprintf("shared/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			e := core.New()
			var nextWorker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				t := event.Tid(nextWorker.Add(1))
				for pb.Next() {
					e.Read(t, 42, 0) // reads only: no cross-reader checks
				}
			})
		})
	}
}

// BenchmarkTelemetry prices the lockset trace hook on the lock-
// disciplined hot path; the engine's rule, walk and contention counters
// are always on. "untraced" (the hook disabled, as every engine starts)
// must allocate what BenchmarkEngineHotPaths/lockDiscipline does (7
// allocs, 376 B/op): a disabled hook costs one atomic load and nothing
// else. "traced" records lockset transitions for the accessed variable
// (the worst case: filter match on every access).
func BenchmarkTelemetry(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		e := core.New()
		if traced {
			e.Trace().Enable("o10.f0")
		}
		e.Sync(event.Fork(1, 2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := event.Tid(1 + i%2)
			e.Sync(event.Acquire(t, 20))
			e.Write(t, 10, 0)
			e.Sync(event.Release(t, 20))
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// BenchmarkTracer prices the pipeline tracer the same way: "disabled"
// (a nil *obs.Tracer, exactly what a daemon built with -trace-sample 0
// carries) must reduce every instrumentation site to one nil check with
// zero allocations, so the ingest hot path is unchanged when tracing is
// off. "enabled" pays the sampling counter on every record plus a
// histogram observe on the sampled ones.
func BenchmarkTracer(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *obs.Tracer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr.Sample() {
				tr.Observe(obs.StageApply, time.Microsecond)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := obs.NewTracer(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr.Sample() {
				tr.Observe(obs.StageApply, time.Microsecond)
			}
		}
	})
}

// BenchmarkContention mixes the regimes: mostly-disjoint accesses with
// a configurable fraction of accesses to one shared lock-protected
// variable, plus the acquire/release traffic that keeps the
// synchronization event list (the one intentionally serialized
// structure) in the loop.
func BenchmarkContention(b *testing.B) {
	for _, procs := range []int{1, 4, 8} {
		for _, sharedPct := range []int{0, 10, 50} {
			b.Run(fmt.Sprintf("procs=%d/shared=%d%%", procs, sharedPct), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				e := core.New()
				var nextWorker atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					id := nextWorker.Add(1)
					t := event.Tid(id)
					own := event.Addr(2000 + id)
					i := 0
					for pb.Next() {
						if sharedPct > 0 && i%100 < sharedPct {
							e.Sync(event.Acquire(t, 77))
							e.Write(t, 99, 0)
							e.Sync(event.Release(t, 77))
						} else {
							e.Write(t, own, 0)
						}
						i++
					}
				})
			})
		}
	}
}

// BenchmarkScheduleExploration measures systematic exploration
// throughput (schedules per op) on a small always-racy program.
func BenchmarkScheduleExploration(b *testing.B) {
	src := `
class D { int v; }
class Main {
	D d;
	void racer() { d.v = 1; }
	void main() {
		d = new D();
		thread t = spawn this.racer();
		d.v = 2;
		join(t);
	}
}
`
	prog := mj.MustCheck(src)
	_ = prog
	body := func(c jrt.Chooser) int {
		p := mj.MustCheck(src)
		rt := jrt.NewRuntime(jrt.Config{Detector: core.New(), Policy: jrt.Log, Mode: jrt.Deterministic, Chooser: c})
		interp, err := mj.NewInterp(p, mj.InterpConfig{Runtime: rt})
		if err != nil {
			b.Fatal(err)
		}
		races, err := interp.Run()
		if err != nil {
			b.Fatal(err)
		}
		return len(races)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.Schedules(explore.Options{MaxSchedules: 50}, body, nil)
		if res.Racy == 0 {
			b.Fatal("no races found")
		}
	}
}

// preemptAlways switches threads at every scheduling point with two or
// more candidates, and counts the switches.
type preemptAlways struct{ switches int }

func (c *preemptAlways) Choose(n int) int { return c.ChoosePreempt(n, false) }

func (c *preemptAlways) ChoosePreempt(n int, currentRunnable bool) int {
	if currentRunnable && n > 1 {
		c.switches++
		return 1
	}
	return 0
}

// BenchmarkDetSchedule measures a deterministic-mode thread switch: two
// threads ping-pong at unchecked reads, so every scheduling point hands
// the turn to the other thread. One op is one read; ns/switch divides
// the time by the switches made.
func BenchmarkDetSchedule(b *testing.B) {
	b.ReportAllocs()
	c := &preemptAlways{}
	rt := jrt.NewRuntime(jrt.Config{Mode: jrt.Deterministic, Chooser: c})
	b.ResetTimer()
	rt.Run(func(th *jrt.Thread) {
		o := th.New(rt.DefineClass("P", jrt.FieldDecl{Name: "x"}))
		loop := func(th *jrt.Thread, n int) {
			for i := 0; i < n; i++ {
				th.GetUnchecked(o, 0)
			}
		}
		u := th.Spawn(func(u *jrt.Thread) { loop(u, b.N/2) })
		loop(th, b.N-b.N/2)
		th.Join(u)
	})
	b.StopTimer()
	if c.switches > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.switches), "ns/switch")
	}
}

// BenchmarkRecordReplay measures the recording detector's overhead and
// the offline replay cost on a workload run.
func BenchmarkRecordReplay(b *testing.B) {
	w := bench.Table1Workloads()[5] // philo: sync-heavy, small
	for i := 0; i < b.N; i++ {
		prog := mj.MustCheck(w.Instantiate(false))
		rec := jrt.Record(core.New())
		rt := jrt.NewRuntime(jrt.Config{Detector: rec, Policy: jrt.Log, Mode: jrt.Deterministic, Seed: 1})
		interp, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := interp.Run(); err != nil {
			b.Fatal(err)
		}
		tr := rec.Trace()
		if rs := detect.RunTrace(core.New(), tr); len(rs) != 0 {
			b.Fatal("replay raced")
		}
	}
}

// BenchmarkCheckpointCapture times engine checkpoints on a
// service-sized engine (a generated trace over 4096 variables, stepped
// 16384 actions). "first" runs both steps, CaptureRecords and the
// encode, to io.Discard on an engine with nothing to reuse (one just
// restored from a checkpoint). "repeat" checkpoints it again after a
// previous checkpoint and the rest of the trace (1181 actions touching
// 555 variables), as a goldilocksd session does, so only the variables
// those actions changed are copied and encoded again. "sparse" does so
// 256 actions (124 variables) after a previous checkpoint: the case
// where a checkpoint's cost should follow what changed rather than the
// size of the table. Both time the two steps apart, as goldilocksd
// splits them: "worker" is CaptureRecords, the copy the session worker
// pays, and "writer" is AppendTo into reused storage, the encode the
// checkpoint writer pays.
func BenchmarkCheckpointCapture(b *testing.B) {
	const warm, every, sparse = 16384, 4096, 256
	cfg := tracegen.Default()
	cfg.Steps = warm + every
	cfg.MaxThreads = 6
	cfg.Objects = 1024
	cfg.Fields = 4
	tr := tracegen.FromSeedConfig(1, cfg)
	base := core.NewEngine(core.DefaultOptions())
	for i := 0; i < warm; i++ {
		base.Step(tr.At(i))
	}
	var snap bytes.Buffer
	if err := base.Checkpoint(&snap); err != nil {
		b.Fatal(err)
	}
	restore := func() *core.Engine {
		e, err := core.RestoreEngine(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := restore()
			b.StartTimer()
			if err := e.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	again := func(steps int) func(b *testing.B) {
		// stepped returns a restored engine checkpointed once and then
		// stepped on.
		stepped := func(b *testing.B) *core.Engine {
			e := restore()
			if err := e.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
			for j := warm; j < min(warm+steps, tr.Len()); j++ {
				e.Step(tr.At(j))
			}
			return e
		}
		return func(b *testing.B) {
			b.Run("worker", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(snap.Len()))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := stepped(b)
					b.StartTimer()
					e.CaptureRecords()
				}
			})
			b.Run("writer", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(snap.Len()))
				var buf []byte
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rs := stepped(b).CaptureRecords()
					b.StartTimer()
					_, spare, err := rs.AppendTo(buf)
					if err != nil {
						b.Fatal(err)
					}
					buf = spare
				}
			})
		}
	}
	b.Run("repeat", again(every))
	b.Run("sparse", again(sparse))
}

// BenchmarkSessionEngine prices what a goldilocksd session engine adds
// to a plain replay, one layer at a time. Every iteration replays one
// generated trace (seed 7, 40k steps) through a fresh engine: "plain"
// with the default options, as a local replay and every session engine
// run; and "checkpointed" that also captures and encodes a checkpoint
// every 4,096 actions, as a session with a checkpoint reader does (here
// the writer's encode runs on the same goroutine).
func BenchmarkSessionEngine(b *testing.B) {
	const every = 4096
	cfg := tracegen.Default()
	cfg.Steps = 40000
	tr := tracegen.FromSeedConfig(7, cfg)
	run := func(b *testing.B, checkpointed bool) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			e := core.New()
			for j := 0; j < tr.Len(); j++ {
				e.Step(tr.At(j))
				if checkpointed && (j+1)%every == 0 {
					_, spare, err := e.CaptureRecords().AppendTo(buf)
					if err != nil {
						b.Fatal(err)
					}
					buf = spare
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/event")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("checkpointed", func(b *testing.B) { run(b, true) })
}
