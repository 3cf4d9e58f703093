// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output, and prints every metric by name
// and unit; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Workloads: table1 (the eleven Table 1 programs), multiset_txn (the
// Table 3 transactional Multiset at 500 threads) and service_replay
// (recorded traces streamed through an in-process goldilocksd). With
// --trace 0 the metrics are the end-to-end set, measured with tracing
// off; with --trace 1 a traced run reports the per-layer set and a
// ledger of where the wall-clock time went. NOTES.md maps each layer
// metric to the end-to-end metric it should move.
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"goldilocks/internal/core"
)

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off; NOTES.md defines each one per workload. The absolute
// times are not among them: see absolute.
var endToEnd = []string{"setup_s", "slowdown", "chord_slowdown", "max_rss_mb"}

// perLayer lists the traced run's metrics with their units. A layer a
// workload does not exercise reports 0.
var perLayer = [][2]string{
	{"e2e.wall_s", "s"}, {"e2e.base_wall_s", "s"}, {"e2e.chord_wall_s", "s"},
	{"e2e.events_per_s", "1/s"}, {"e2e.cpu_s", "s"},
	{"mj.parse_check_s", "s"}, {"mj.accesses", "count"}, {"mj.base_ns_per_access", "ns"},
	{"mj.chord_base_wall_s", "s"},
	{"static.chord_s", "s"}, {"static.checked_access_frac", "ratio"},
	{"jrt.hook_s", "s"}, {"jrt.calls_read", "count"}, {"jrt.calls_write", "count"},
	{"jrt.calls_sync", "count"}, {"jrt.calls_commit", "count"}, {"jrt.calls_alloc", "count"},
	{"jrt.sync_ops", "count"},
	{"core.self_s", "s"},
	{"core.read_p50_ns", "ns"}, {"core.read_p99_ns", "ns"},
	{"core.write_p50_ns", "ns"}, {"core.write_p99_ns", "ns"},
	{"core.sync_p50_ns", "ns"}, {"core.sync_p99_ns", "ns"},
	{"core.commit_p50_ns", "ns"}, {"core.commit_p99_ns", "ns"},
	{"core.sc_rate", "ratio"}, {"core.fastpath_rate", "ratio"}, {"core.full_walk_rate", "ratio"},
	{"core.avg_walk_cells", "cells"}, {"core.pair_checks_per_access", "ratio"},
	{"core.hb_cache_hit_rate", "ratio"}, {"core.xact_hits", "count"},
	{"core.gc_collections", "count"}, {"core.gc_reclaim_rate", "ratio"},
	{"core.list_len_end", "cells"}, {"core.governor_rung", "rung"},
	{"core.apply_ns_per_event", "ns"}, {"core.apply_ns_per_event_nofastpath", "ns"},
	{"core.fastpath_ab_ratio", "x"},
	{"stm.commits", "count"}, {"stm.aborts", "count"}, {"stm.commit_ratio", "ratio"},
	{"stm.accesses_per_commit", "count"},
	{"event.frame_bytes_per_event", "B"}, {"event.encode_ns_per_event", "ns"},
	{"event.decode_ns_per_event", "ns"},
	{"server.verdict_p50_ms", "ms"}, {"server.verdict_p99_ms", "ms"},
	{"server.verdict_samples", "count"}, {"server.verdict_tail_q", "ratio"},
	{"server.send_block_s", "s"},
	{"server.queue_wait_p50_us", "us"}, {"server.queue_wait_p99_us", "us"},
	{"server.apply_p50_us", "us"}, {"server.apply_p99_us", "us"},
	{"server.verdict_flush_p50_us", "us"}, {"server.verdict_flush_p99_us", "us"},
	{"server.checkpoint_write_p50_ms", "ms"}, {"server.checkpoint_write_p99_ms", "ms"},
	{"server.checkpoints", "count"}, {"server.races_pushed", "count"},
	{"goruntime.alloc_bytes_per_event", "B"}, {"goruntime.gc_cycles", "count"},
	{"goruntime.gc_pause_ms", "ms"},
	{"ledger.unattributed_s", "s"}, {"ledger.chord_mask_interp_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = []string{"table1", "multiset_txn", "service_replay"}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scratch is where the daemon's checkpoint directory is made.
	scratch string
	// small selects test-scale inputs (the package's smoke tests).
	small bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCounter counts operations: one program execution or one daemon
// session. An error or a wrong verdict is a failure.
type opCounter struct {
	attempted, failed int
	firstFailures     []string
}

func (c *opCounter) note(ok bool, what string) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.firstFailures) < 5 {
			c.firstFailures = append(c.firstFailures, what)
		}
	}
}

// report collects one run's metrics and human-readable notes.
type report struct {
	metrics map[string]metric
	notes   []string
	ops     opCounter
	// engine is the detector configuration the workload ran with.
	engine core.Options
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absolute holds a run's absolute times: the instrumented, uninstrumented
// and Chord-masked wall times, the detector's throughput and the CPU time
// of the instrumented run. They follow the speed of the shared box, which
// moves them by up to half between runs minutes apart while the ratios
// of configurations run back to back hold, so no bound fits them. The
// traced run reports them as per-layer metrics and the untraced run
// prints them as a note.
type absolute struct {
	wall, base, chord, eventsPerS, cpu float64
}

func (a absolute) set(rep *report) {
	rep.set("e2e.wall_s", "s", a.wall)
	rep.set("e2e.base_wall_s", "s", a.base)
	rep.set("e2e.chord_wall_s", "s", a.chord)
	rep.set("e2e.events_per_s", "1/s", a.eventsPerS)
	rep.set("e2e.cpu_s", "s", a.cpu)
}

func (a absolute) String() string {
	return fmt.Sprintf("absolute times (no bound, see NOTES.md): wall_s %.4f, base_wall_s %.4f, chord_wall_s %.4f, events_per_s %.0f, cpu_s %.4f",
		a.wall, a.base, a.chord, a.eventsPerS, a.cpu)
}

// run executes one workload and returns its report.
func run(workload string, o options) (*report, error) {
	rep := newReport()
	var err error
	switch workload {
	case "table1", "multiset_txn":
		err = runMJWorkload(workload, o, rep)
	case "service_replay":
		err = runService(o, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		for _, m := range perLayer {
			if _, ok := rep.metrics[m[0]]; !ok {
				rep.set(m[0], m[1], 0)
			}
		}
	} else {
		for _, name := range endToEnd {
			if _, ok := rep.metrics[name]; !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", workload, name)
			}
		}
	}
	// Every workload reports exactly the declared set, nothing else.
	want := len(endToEnd)
	if o.trace {
		want = len(perLayer)
	}
	if len(rep.metrics) != want {
		return nil, fmt.Errorf("%s: %d metrics measured, %d declared", workload, len(rep.metrics), want)
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", workload, name, m.Value)
		}
	}
	return rep, nil
}

// stamp identifies what produced a result.
type stamp struct {
	Commit      string  `json:"commit"`
	Dirty       string  `json:"dirty"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	EngineOpts  string  `json:"engine_options"`
	Fingerprint string  `json:"engine_options_fnv64"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
}

// gitState returns HEAD's commit and whether tracked files differ from
// it, read when the benchmark runs; "unknown" outside a git checkout.
func gitState() (commit, dirty string) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	commit = strings.TrimSpace(string(out))
	out, err = exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return commit, "unknown"
	}
	return commit, fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
}

func newStamp(workload string, o options, engine core.Options) stamp {
	eo := fmt.Sprintf("%+v", engine)
	h := fnv.New64a()
	h.Write([]byte(eo))
	commit, dirty := gitState()
	return stamp{
		Commit: commit, Dirty: dirty, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		EngineOpts: eo, Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the timed section")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for the daemon's checkpoints")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: *scratch}
	rep, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(newStamp(*workload, o, rep.engine), rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printReport writes the stamp, the notes and one line per metric, then
// the result object as the last line.
func printReport(st stamp, rep *report) error {
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", sj)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := endToEnd
	if st.Trace {
		names = names[:0:0]
		for _, m := range perLayer {
			names = append(names, m[0])
		}
	}
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range rep.ops.firstFailures {
		fmt.Printf("failed: %s\n", f)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.ops.failed == 0 && rep.ops.attempted > 0, rep.ops.attempted, rep.ops.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
