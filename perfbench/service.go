package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/obs"
	"goldilocks/internal/server"
	"goldilocks/internal/tracegen"
)

// The service workload streams recorded traces through an in-process
// goldilocksd over loopback TCP on the binary wire, two sessions at a
// time, in a closed loop: each session sends a batch, then calls Flush
// and waits for the ack before sending the next.
const (
	serviceConns = 2   // concurrent sessions: one per processor on a 2-CPU box
	clientBatch  = 256 // actions sent between two Flush calls
	// The daemon runs as goldilocksd does by default.
	daemonQueue     = 256
	daemonBatch     = 64
	checkpointEvery = 4096
	flightEvents    = 4096
	// traceSample is the daemon tracer's sampling interval in traced
	// runs (goldilocksd's default is 1024; denser gives steadier p99s).
	traceSample = 16
	// racySteps sizes the generated trace that carries races.
	racySteps = 20000
)

// serviceSources are the programs recorded for the service workload, at
// sizes that record in well under a second under the deterministic
// scheduler. moldyn, raytracer, series and sor2 are left out: the
// deterministic scheduler records them at a fraction of the others'
// speed, which would dominate set-up.
var serviceSources = []struct {
	name   string
	params map[string]int
}{
	{"colt", map[string]int{"SIZE": 12, "REPS": 3}},
	{"hedc", map[string]int{"TASKS": 120, "WORK": 60}},
	{"lufact", map[string]int{"SIZE": 20}},
	{"sor", map[string]int{"ROWS": 24, "COLS": 24, "ITERS": 8}},
	{"tsp", map[string]int{"CITIES": 7}},
	{"philo", map[string]int{"ROUNDS": 40}},
}

// verdict identifies one race report: its position in the stream and
// the variable.
type verdict struct {
	pos int
	v   event.Variable
}

func sortVerdicts(vs []verdict) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.v.Obj != b.v.Obj {
			return a.v.Obj < b.v.Obj
		}
		return a.v.Field < b.v.Field
	})
}

// serviceTrace is one session's input with the verdicts a local replay
// of it produces.
type serviceTrace struct {
	name    string
	actions []event.Action
	want    []verdict
}

// replay steps a fresh engine through actions, as the daemon's session
// worker does, and returns the verdicts and the engine.
func replay(actions []event.Action, opts core.Options) ([]verdict, *core.Engine) {
	eng := core.NewEngine(opts)
	var out []verdict
	for i, a := range actions {
		for _, r := range eng.Step(a) {
			out = append(out, verdict{pos: i, v: r.Var})
		}
	}
	sortVerdicts(out)
	return out, eng
}

// serviceSetup is everything the service workload prepares before the
// clock starts.
type serviceSetup struct {
	plain, masked []*serviceTrace // unmasked and Chord-masked recordings, plus the racy trace
	parseCheck    time.Duration
	chord         time.Duration
	daemons       []*daemon
}

// daemon is one in-process goldilocksd with its checkpoint directory.
type daemon struct {
	srv *server.Server
	reg *obs.Registry
	tr  *obs.Tracer
	dir string
}

func startDaemon(scratch string, tracer *obs.Tracer) (*daemon, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "perfbench-ckpt-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := server.New("127.0.0.1:0", server.Config{
		Queue: daemonQueue, Batch: daemonBatch,
		CheckpointDir: dir, CheckpointEvery: checkpointEvery,
		Registry: reg, Tracer: tracer,
		Flight: obs.NewFlightRecorder(flightEvents), FlightDir: filepath.Join(dir, "flight"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	return &daemon{srv: srv, reg: reg, tr: tracer, dir: dir}, nil
}

// ckptBusy returns the daemon's summed checkpoint-write time so far, as
// its tracer observed it (0 for an untraced daemon).
func (d *daemon) ckptBusy() time.Duration {
	if d.tr == nil {
		return 0
	}
	return time.Duration(d.tr.StageHist(obs.StageCheckpointWrite).Sum()) * time.Microsecond
}

func (d *daemon) close() error {
	err := d.srv.Close()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

func (s *serviceSetup) close() error {
	var errs []error
	for _, d := range s.daemons {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// record runs p under the deterministic scheduler and returns the
// linearization the detector observed.
func record(p *mjProgram, masked bool, seed int64) ([]event.Action, error) {
	rec := jrt.Record(core.New())
	rt := jrt.NewRuntime(jrt.Config{Detector: rec, Policy: jrt.Log, Mode: jrt.Deterministic, Seed: seed})
	prog, mask := p.prog, []bool(nil)
	if masked {
		prog, mask = p.chordProg, p.mask
	}
	in, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, SiteNoCheck: mask})
	if err != nil {
		return nil, err
	}
	races, err := in.Run()
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", p.name, err)
	}
	if f := rt.Failure(); f != nil {
		return nil, fmt.Errorf("record %s: %v", p.name, f)
	}
	if len(races) > 0 {
		return nil, fmt.Errorf("record %s: %d races on a race-free program", p.name, len(races))
	}
	return rec.Trace().Actions(), nil
}

// racyTrace generates the trace whose races keep the verdict path busy:
// the first trace, over generator seeds derived from seed, in which a
// reference replay finds a race. Some generator seeds give none.
func racyTrace(seed int64, steps int) (*serviceTrace, error) {
	cfg := tracegen.Default()
	cfg.Steps = steps
	cfg.MaxThreads = 6
	cfg.Objects = 8
	const tries = 16
	for k := int64(0); k < tries; k++ {
		actions := tracegen.FromSeedConfig(seed*tries+k, cfg).Actions()
		if want, _ := replay(actions, core.DefaultOptions()); len(want) > 0 {
			return &serviceTrace{name: "tracegen", actions: actions, want: want}, nil
		}
	}
	return nil, fmt.Errorf("no generated trace with a race for seed %d", seed)
}

func setupService(o options, tracers []*obs.Tracer) (*serviceSetup, error) {
	var sources [][2]string
	byName := map[string]bench.Workload{}
	for _, w := range bench.Table1Workloads() {
		byName[w.Name] = w
	}
	for _, ss := range serviceSources {
		w := byName[ss.name]
		if !o.small {
			w.Full = ss.params
		}
		sources = append(sources, [2]string{w.Name, w.Instantiate(!o.small)})
	}
	ms, err := setupMJ(sources)
	if err != nil {
		return nil, err
	}
	s := &serviceSetup{parseCheck: ms.parseCheck, chord: ms.chord}
	opts := core.DefaultOptions()
	for _, p := range ms.progs {
		for _, masked := range []bool{false, true} {
			actions, err := record(p, masked, o.seed)
			if err != nil {
				return nil, err
			}
			want, _ := replay(actions, opts)
			t := &serviceTrace{name: p.name, actions: actions, want: want}
			if masked {
				s.masked = append(s.masked, t)
			} else {
				s.plain = append(s.plain, t)
			}
		}
	}
	steps := racySteps
	if o.small {
		steps = 2000
	}
	racy, err := racyTrace(o.seed, steps)
	if err != nil {
		return nil, err
	}
	s.plain = append(s.plain, racy)
	s.masked = append(s.masked, racy)
	for _, tr := range tracers {
		d, err := startDaemon(o.scratch, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.daemons = append(s.daemons, d)
	}
	return s, nil
}

func countEvents(ts []*serviceTrace) int {
	n := 0
	for _, t := range ts {
		n += len(t.actions)
	}
	return n
}

// phase is one configuration run over a whole trace set.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	events    int
	flushMS   []float64 // Flush call to ack, per batch
	sendBlock time.Duration
	races     int
	mem       memDelta
	ckpts     uint64
	ckptBusy  time.Duration // checkpoint writes, from the daemon tracer (traced daemons only)
}

// sessionResult is what one worker collects.
type sessionResult struct {
	flushMS   []float64
	sendBlock time.Duration
	races     int
}

// streamSession streams one trace as one session and checks the daemon's
// verdicts and applied counts against the local replay. It returns a
// description of the first problem, or "".
func streamSession(addr, id string, t *serviceTrace, timeSends bool, res *sessionResult) string {
	c, err := server.DialContext(context.Background(), addr, id, server.DialConfig{})
	if err != nil {
		return err.Error()
	}
	if !c.Binary() {
		c.Abandon()
		return "daemon did not negotiate the binary wire"
	}
	for sent := 0; sent < len(t.actions); {
		end := min(sent+clientBatch, len(t.actions))
		for _, a := range t.actions[sent:end] {
			var err error
			if timeSends {
				start := time.Now()
				err = c.Send(a)
				res.sendBlock += time.Since(start)
			} else {
				err = c.Send(a)
			}
			if err != nil {
				c.Abandon()
				return err.Error()
			}
		}
		sent = end
		start := time.Now()
		ack, err := c.Flush()
		res.flushMS = append(res.flushMS, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			c.Abandon()
			return err.Error()
		}
		if ack.Applied != uint64(sent) {
			c.Abandon()
			return fmt.Sprintf("ack applied %d after %d sent", ack.Applied, sent)
		}
	}
	ack, err := c.Close()
	if err != nil {
		return err.Error()
	}
	if ack.Applied != uint64(len(t.actions)) {
		return fmt.Sprintf("final ack applied %d of %d", ack.Applied, len(t.actions))
	}
	races := c.Races()
	res.races += len(races)
	got := make([]verdict, len(races))
	for i, r := range races {
		got[i] = verdict{pos: r.Pos, v: r.Var}
	}
	sortVerdicts(got)
	if !slices.Equal(got, t.want) {
		return fmt.Sprintf("%d verdicts differ from the %d of a local replay", len(got), len(t.want))
	}
	return ""
}

// parallel runs work(i) for every index in order on serviceConns
// workers and returns the wall-clock time until all are done.
func parallel(order []int, work func(worker, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serviceConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				work(w, order[k])
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// serviceRun drives the service workload.
type serviceRun struct {
	o      options
	rng    *rand.Rand
	rot0   int // seeded start of the phase rotation
	ops    *opCounter
	traced bool
	nextID int
}

// stream runs one phase of sessions against d, one per trace, and drops
// the sessions afterwards so the daemon's memory stays flat across
// rounds.
func (r *serviceRun) stream(d *daemon, ts []*serviceTrace, timeSends bool) phase {
	order := r.rng.Perm(len(ts))
	ids := make([]string, len(ts))
	for i := range ids {
		r.nextID++
		ids[i] = fmt.Sprintf("s%d", r.nextID)
	}
	results := make([]sessionResult, serviceConns)
	problems := make([]string, len(ts))
	ckpt0 := d.reg.Counter("goldilocksd_checkpoints_written_total").Load()
	ckptBusy0 := d.ckptBusy()
	runtime.GC()
	var before *memProbe
	if r.traced {
		before = readMem()
	}
	cpu0 := cpuTime()
	wall := parallel(order, func(w, i int) {
		problems[i] = streamSession(d.srv.Addr(), ids[i], ts[i], timeSends, &results[w])
	})
	ph := phase{wall: wall, cpu: cpuTime() - cpu0, events: countEvents(ts)}
	if r.traced {
		ph.mem = readMem().since(before)
	}
	ph.ckpts = d.reg.Counter("goldilocksd_checkpoints_written_total").Load() - ckpt0
	ph.ckptBusy = d.ckptBusy() - ckptBusy0
	for _, res := range results {
		ph.flushMS = append(ph.flushMS, res.flushMS...)
		ph.sendBlock += res.sendBlock
		ph.races += res.races
	}
	for i, p := range problems {
		r.ops.note(p == "", fmt.Sprintf("session %s (%s): %s", ids[i], ts[i].name, p))
	}
	for _, id := range ids {
		dropSession(d.srv, id)
	}
	return ph
}

// dropSession removes a closed session. The daemon detaches a session
// just after acking its close, so the drop is retried briefly.
func dropSession(srv *server.Server, id string) {
	deadline := time.Now().Add(2 * time.Second)
	for srv.DropSession(id) != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// localApply replays every trace on serviceConns workers with direct
// Engine.Step calls: the daemon's work without the wire, queue or
// sessions. busy is the summed per-trace replay time; the engine
// counters are the daemon's too, since both step the same actions.
func (r *serviceRun) localApply(ts []*serviceTrace, opts core.Options) (wall, busy time.Duration, stats core.Stats, listLen int) {
	order := r.rng.Perm(len(ts))
	runtime.GC()
	busyNS := make([]time.Duration, len(ts))
	execs := make([]execution, len(ts))
	wall = parallel(order, func(_, i int) {
		start := time.Now()
		_, eng := replay(ts[i].actions, opts)
		busyNS[i] = time.Since(start)
		execs[i] = execution{eng: eng.Stats(), listLen: eng.ListLen()}
	})
	for _, b := range busyNS {
		busy += b
	}
	stats, listLen = sumStats(execs)
	return wall, busy, stats, listLen
}

// codec times the binary wire's event encoding and decoding over the
// traces, and checks that every action decodes to itself.
func codec(ts []*serviceTrace) (bytesPerEvent, encNS, decNS float64, err error) {
	var buf []byte
	n := 0
	start := time.Now()
	for _, t := range ts {
		for _, a := range t.actions {
			buf = event.AppendEventFrame(buf, a, 0)
		}
		n += len(t.actions)
	}
	enc := time.Since(start)
	fr := event.NewFrameReader(bufio.NewReader(bytes.NewReader(buf)))
	decoded := make([]event.Action, 0, n)
	start = time.Now()
	for {
		_, body, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
		a, _, err := event.DecodeEventFrame(body)
		if err != nil {
			return 0, 0, 0, err
		}
		decoded = append(decoded, a)
	}
	dec := time.Since(start)
	k := 0
	for _, t := range ts {
		for _, a := range t.actions {
			if !reflect.DeepEqual(normalize(a), normalize(decoded[k])) {
				return 0, 0, 0, fmt.Errorf("%s: action %d decodes to %v, want %v", t.name, k, decoded[k], a)
			}
			k++
		}
	}
	return float64(len(buf)) / float64(n), float64(enc) / float64(n), float64(dec) / float64(n), nil
}

// normalize maps empty commit sets to nil, which the codec does not
// distinguish.
func normalize(a event.Action) event.Action {
	if len(a.Reads) == 0 {
		a.Reads = nil
	}
	if len(a.Writes) == 0 {
		a.Writes = nil
	}
	return a
}

// rotated runs every step once, starting with step start mod len(steps).
// Rounds cycle the start with their number, from the run's seeded
// start, so that no phase always runs first.
func rotated(start int, steps []func()) {
	for k := range steps {
		steps[(start+k)%len(steps)]()
	}
}

// roundsUntil runs round 0, 1, ... until the next one would end past
// the deadline, and always at least once.
func roundsUntil(seconds float64, round func(n int)) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		round(n)
		if time.Since(start)+time.Since(t0) > budget {
			return
		}
	}
}

func runService(o options, rep *report) error {
	// Set-up (recording, reference replays, daemon start) is repeated
	// and its median reported; the last repetition's inputs are used.
	// The heap is collected before each repetition, as for the MJ
	// workloads.
	var setupTimes, parseTimes, chordTimes []float64
	var s *serviceSetup
	for i := 0; i < 3; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		tracers := []*obs.Tracer{nil}
		if o.trace {
			tracers = append(tracers, obs.NewTracer(traceSample))
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = setupService(o, tracers); err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		parseTimes = append(parseTimes, s.parseCheck.Seconds())
		chordTimes = append(chordTimes, s.chord.Seconds())
	}
	defer s.close()
	// The daemon falls back to the default engine options, and the
	// reference replays use them too.
	rep.engine = core.DefaultOptions()

	rng := rand.New(rand.NewSource(o.seed))
	r := &serviceRun{o: o, rng: rng, rot0: rng.Intn(3), ops: &rep.ops, traced: o.trace}
	events := countEvents(s.plain)
	rep.note("service: %d sessions per phase, %d events (%d with Chord's mask), %d reference verdicts on the generated trace",
		len(s.plain), events, countEvents(s.masked), len(s.plain[len(s.plain)-1].want))
	if !o.trace {
		return serviceTimed(r, s, setupTimes, rep)
	}
	rep.set("mj.parse_check_s", "s", median(parseTimes))
	rep.set("static.chord_s", "s", median(chordTimes))
	return serviceTraced(r, s, rep)
}

// shortRepeats is how many times a round repeats the phases that take
// a tenth of the streamed phase (the local apply and the masked stream),
// so that each round's sample of them is a median too.
const shortRepeats = 3

// serviceTimed measures the end-to-end metrics: each round streams the
// recordings, replays them locally and streams the Chord-masked
// recordings, in a seeded rotation. slowdown and chord_slowdown divide
// the two streamed phases by the local replay of the same round.
func serviceTimed(r *serviceRun, s *serviceSetup, setupTimes []float64, rep *report) error {
	d := s.daemons[0]
	var wall, base, chord, cpu, rate, slow, chordSlow []float64
	repeat := func(f func() time.Duration) float64 {
		xs := make([]float64, shortRepeats)
		for i := range xs {
			xs[i] = f().Seconds()
		}
		return median(xs)
	}
	roundsUntil(r.o.seconds, func(n int) {
		var w, b, c float64
		steps := []func(){
			func() {
				ph := r.stream(d, s.plain, false)
				w = ph.wall.Seconds()
				cpu = append(cpu, ph.cpu.Seconds())
				rate = append(rate, float64(ph.events)/w)
			},
			func() {
				b = repeat(func() time.Duration {
					wall, _, _, _ := r.localApply(s.plain, core.DefaultOptions())
					return wall
				})
			},
			func() { c = repeat(func() time.Duration { return r.stream(d, s.masked, false).wall }) },
		}
		rotated(r.rot0+n, steps)
		wall, base, chord = append(wall, w), append(base, b), append(chord, c)
		slow, chordSlow = append(slow, w/b), append(chordSlow, c/b)
	})
	rep.set("setup_s", "s", median(setupTimes))
	rep.set("slowdown", "x", median(slow))
	rep.set("chord_slowdown", "x", median(chordSlow))
	rep.set("max_rss_mb", "MB", maxRSSMB())
	rep.note("%v", absolute{wall: median(wall), base: median(base), chord: median(chord), eventsPerS: median(rate), cpu: median(cpu)})
	return nil
}

// serviceTraced measures the per-layer metrics: untraced and traced
// daemon rounds back to back, the local apply with the epoch fast path
// on and off, and the wire codec on its own.
func serviceTraced(r *serviceRun, s *serviceSetup, rep *report) error {
	plainD, tracedD := s.daemons[0], s.daemons[1]
	events := float64(countEvents(s.plain))
	var wall, base, chord, cpu, tracedWall, sendBlock, races, ckpts, ckptS, applyOn, applyOff, abRatio, gcCycles, gcPause, allocPerEvent []float64
	var flushMS, encNS, decNS []float64
	var last phase
	var fastStats core.Stats
	var listLen int
	var bytesPerEvent float64
	var codecErr error
	roundsUntil(r.o.seconds, func(n int) {
		steps := []func(){
			func() {
				b, enc, dec, err := codec(s.plain)
				if err != nil {
					codecErr = err
					return
				}
				bytesPerEvent = b
				encNS, decNS = append(encNS, enc), append(decNS, dec)
			},
			func() {
				ph := r.stream(plainD, s.plain, false)
				wall = append(wall, ph.wall.Seconds())
				cpu = append(cpu, ph.cpu.Seconds())
				flushMS = append(flushMS, ph.flushMS...)
				chord = append(chord, r.stream(plainD, s.masked, false).wall.Seconds())
			},
			func() {
				last = r.stream(tracedD, s.plain, true)
				tracedWall = append(tracedWall, last.wall.Seconds())
				sendBlock = append(sendBlock, last.sendBlock.Seconds())
				races = append(races, float64(last.races))
				ckpts = append(ckpts, float64(last.ckpts))
				ckptS = append(ckptS, last.ckptBusy.Seconds()/serviceConns)
				gcCycles = append(gcCycles, float64(last.mem.gcCycles))
				gcPause = append(gcPause, float64(last.mem.gcPause)/float64(time.Millisecond))
				allocPerEvent = append(allocPerEvent, float64(last.mem.allocBytes)/events)
			},
			func() {
				on := core.DefaultOptions()
				off := on
				off.FastPath = false
				wOn, bOn, st, ll := r.localApply(s.plain, on)
				base = append(base, wOn.Seconds())
				_, bOff, _, _ := r.localApply(s.plain, off)
				fastStats, listLen = st, ll
				applyOn = append(applyOn, float64(bOn)/events)
				applyOff = append(applyOff, float64(bOff)/events)
				abRatio = append(abRatio, float64(bOff)/float64(bOn))
			},
		}
		rotated(r.rot0+n, steps)
	})
	if codecErr != nil {
		return codecErr
	}
	// The streamed wall time is the local apply, the codec's share and
	// the checkpoint writes, each split over the sessions running side by
	// side; what is left is the wire, the queues and scheduling.
	l := ledger{wall: median(wall), parts: []ledgerPart{
		{"local apply", median(applyOn) * events / serviceConns / 1e9},
		{"codec", (median(encNS) + median(decNS)) * events / serviceConns / 1e9},
		{"checkpoint writes", median(ckptS)},
	}}
	absolute{
		wall: median(wall), base: median(base), chord: median(chord),
		eventsPerS: events / median(wall), cpu: median(cpu),
	}.set(rep)
	// Verdict latency comes from the untraced daemon's phases, so the
	// tracer's own cost is not in it.
	tailQ := tailQuantile(len(flushMS))
	rep.note("verdict latency: Flush call to ack per %d-action batch; n=%d, tail percentile p%.0f", clientBatch, len(flushMS), 100*tailQ)
	rep.set("server.verdict_p50_ms", "ms", median(flushMS))
	rep.set("server.verdict_p99_ms", "ms", quantile(flushMS, tailQ))
	rep.set("server.verdict_samples", "count", float64(len(flushMS)))
	rep.set("server.verdict_tail_q", "ratio", tailQ)
	coreRates(fastStats, listLen, rep)
	rep.set("core.apply_ns_per_event", "ns", median(applyOn))
	rep.set("core.apply_ns_per_event_nofastpath", "ns", median(applyOff))
	rep.set("core.fastpath_ab_ratio", "x", median(abRatio))
	rep.set("event.frame_bytes_per_event", "B", bytesPerEvent)
	rep.set("event.encode_ns_per_event", "ns", median(encNS))
	rep.set("event.decode_ns_per_event", "ns", median(decNS))
	rep.set("server.send_block_s", "s", median(sendBlock))
	stage := func(name string, st obs.Stage, unit string, perUS float64) {
		h := tracedD.tr.StageHist(st)
		rep.set("server."+name+"_p50_"+unit, unit, h.Quantile(0.50)/perUS)
		rep.set("server."+name+"_p99_"+unit, unit, h.Quantile(0.99)/perUS)
	}
	stage("queue_wait", obs.StageQueueWait, "us", 1)
	stage("apply", obs.StageApply, "us", 1)
	stage("verdict_flush", obs.StageVerdictFlush, "us", 1)
	stage("checkpoint_write", obs.StageCheckpointWrite, "ms", 1000)
	rep.set("server.checkpoints", "count", median(ckpts))
	rep.set("server.races_pushed", "count", median(races))
	rep.set("goruntime.alloc_bytes_per_event", "B", median(allocPerEvent))
	rep.set("goruntime.gc_cycles", "count", median(gcCycles))
	rep.set("goruntime.gc_pause_ms", "ms", median(gcPause))
	rep.set("ledger.unattributed_s", "s", l.unattributed())
	rep.set("trace.overhead_frac", "ratio", median(tracedWall)/median(wall)-1)
	rep.note("ledger service_replay (medians over %d rounds): %v", len(wall), l)
	rep.note("fast path A/B (local apply): %.1f ns/event on, %.1f ns/event off, off/on %.3f", median(applyOn), median(applyOff), median(abRatio))
	return nil
}
