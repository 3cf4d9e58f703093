package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors"
	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
)

// mainArgsEnv, when set in the environment, makes the test binary run
// main with these newline-separated arguments instead of the tests.
const mainArgsEnv = "GOLDILOCKS_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"goldilocks"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("goldilocks", flag.ExitOnError)
		main()
	}
	os.Exit(m.Run())
}

// runMain runs the goldilocks command with args in a child process and
// returns its exit code and combined output.
func runMain(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("run %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mj")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// cfg returns a runConfig with the historical defaults; tests override
// fields as needed.
func cfg() runConfig {
	return runConfig{detector: "goldilocks", static: "none", policy: "throw", sched: "det", seed: 1, onError: "quarantine"}
}

const cleanSrc = `
class Counter { int n; synchronized void inc() { n = n + 1; } }
class Main {
	Counter c;
	void work() { for (int i = 0; i < 5; i = i + 1) { c.inc(); } }
	void main() {
		c = new Counter();
		thread a = spawn this.work();
		join(a);
		print(c.n);
	}
}
`

const racySrc = `
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

func TestRunCleanProgramAllDetectors(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	// The naive lockset detector false-alarms on the unprotected
	// initialization, demonstrating the precision gap from the CLI too.
	falseAlarm := map[string]bool{"basic": true}
	for _, e := range append(detectors.Runtime(), detectors.Entry{Name: "none"}) {
		c := cfg()
		c.detector, c.policy, c.stats = e.Name, "log", true
		n, err := run(context.Background(), path, c)
		if err != nil {
			t.Errorf("detector %s: %v", e.Name, err)
		}
		want := resilience.ExitClean
		if falseAlarm[e.Name] {
			want = resilience.ExitRace
		}
		if code := exitFor(n, err); code != want {
			t.Errorf("detector %s: %d races, exit code %d, want %d", e.Name, n, code, want)
		}
	}
}

func TestRunStaticAnalyses(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	for _, analysis := range []string{"chord", "rcc"} {
		c := cfg()
		c.static, c.policy = analysis, "log"
		if _, err := run(context.Background(), path, c); err != nil {
			t.Errorf("static %s: %v", analysis, err)
		}
	}
}

func TestRunNoShortCircuit(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	c := cfg()
	c.sched, c.seed, c.stats, c.noSC = "free", 0, true, true
	if _, err := run(context.Background(), path, c); err != nil {
		t.Errorf("no-shortcircuit: %v", err)
	}
}

func TestRunMemoryBudget(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	c := cfg()
	c.budget, c.stats = 16, true
	n, err := run(context.Background(), path, c)
	if err != nil {
		t.Fatalf("memory budget: %v", err)
	}
	if n != 0 {
		t.Errorf("%d races under a memory budget on a race-free program", n)
	}
}

func TestRunRejectsBadFlagsWithUsageExit(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	cases := []runConfig{}
	c := cfg()
	c.detector = "bogus"
	cases = append(cases, c)
	c = cfg()
	c.static = "bogus"
	cases = append(cases, c)
	c = cfg()
	c.policy = "bogus"
	cases = append(cases, c)
	c = cfg()
	c.sched = "bogus"
	cases = append(cases, c)
	c = cfg()
	c.onError = "bogus"
	cases = append(cases, c)
	for _, c := range cases {
		n, err := run(context.Background(), path, c)
		if err == nil {
			t.Errorf("config %+v accepted", c)
			continue
		}
		if !errors.Is(err, errUsage) {
			t.Errorf("config %+v: error %v is not a usage error", c, err)
		}
		if code := exitFor(n, err); code != resilience.ExitUsage {
			t.Errorf("config %+v: exit code %d, want %d", c, code, resilience.ExitUsage)
		}
	}
}

// TestTraceLocksetsNeedsGoldilocks: -trace-locksets reads the goldilocks
// engine's trace hook, so any other detector, none, or -remote is a
// usage error that says why, not a run without the trace.
func TestTraceLocksetsNeedsGoldilocks(t *testing.T) {
	path := writeProgram(t, racySrc)
	var cases []runConfig
	for _, det := range []string{"vectorclock", "none"} {
		c := cfg()
		c.policy, c.detector, c.traceVars = "log", det, "all"
		cases = append(cases, c)
	}
	c := cfg()
	c.policy, c.remote, c.traceVars = "log", "localhost:1", "all"
	cases = append(cases, c)
	for _, c := range cases {
		n, err := run(context.Background(), path, c)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-trace-locksets") {
			t.Errorf("detector %q remote %q: error %v, want a usage error naming -trace-locksets", c.detector, c.remote, err)
		}
		if code := exitFor(n, err); code != resilience.ExitUsage {
			t.Errorf("detector %q remote %q: exit code %d, want %d", c.detector, c.remote, code, resilience.ExitUsage)
		}
	}
}

func TestRunFrontEndErrorsExitRuntime(t *testing.T) {
	n, err := run(context.Background(), filepath.Join(t.TempDir(), "missing.mj"), cfg())
	if err == nil {
		t.Error("missing file accepted")
	}
	if code := exitFor(n, err); code != resilience.ExitRuntime {
		t.Errorf("missing file: exit code %d, want %d", code, resilience.ExitRuntime)
	}
	bad := writeProgram(t, "class {")
	if _, err := run(context.Background(), bad, cfg()); err == nil {
		t.Error("syntax error accepted")
	}
	unchecked := writeProgram(t, "class C { void m() { x = 1; } }")
	if _, err := run(context.Background(), unchecked, cfg()); err == nil {
		t.Error("type error accepted")
	}
}

// TestRunDeadlockExitsRuntime: a deterministic deadlock produces a
// structured failure and the runtime-error exit code, not a crash, and
// still writes the -stats-json document with its "failure" section.
func TestRunDeadlockExitsRuntime(t *testing.T) {
	path := writeProgram(t, `
class L { int x; }
class Main {
	L a; L b;
	void left() {
		synchronized (a) { synchronized (b) { b.x = 1; } }
	}
	void main() {
		a = new L(); b = new L();
		thread t = spawn this.left();
		synchronized (b) { synchronized (a) { a.x = 2; } }
		join(t);
	}
}
`)
	// A deadlock needs the right interleaving; scan seeds until one
	// manifests (the clean exits are legitimate runs).
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	for seed := int64(1); seed <= 50; seed++ {
		c := cfg()
		c.policy, c.statsJSON = "log", jsonPath
		c.seed = seed
		os.Remove(jsonPath) // a clean seed's document must not stand in
		n, err := run(context.Background(), path, c)
		if err == nil {
			continue
		}
		var rep *resilience.Report
		if !errors.As(err, &rep) {
			t.Fatalf("seed %d: error %v is not a resilience.Report", seed, err)
		}
		if rep.Kind != resilience.Deadlock {
			t.Fatalf("seed %d: Kind = %v, want Deadlock", seed, rep.Kind)
		}
		if code := exitFor(n, err); code != resilience.ExitRuntime {
			t.Fatalf("seed %d: exit code %d, want %d", seed, code, resilience.ExitRuntime)
		}
		// The deadlock still reaches the -stats-json document.
		doc, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatalf("seed %d: no -stats-json document: %v", seed, err)
		}
		var parsed struct {
			Failure *struct {
				Kind string `json:"kind"`
			} `json:"failure"`
		}
		if err := json.Unmarshal(doc, &parsed); err != nil {
			t.Fatal(err)
		}
		if parsed.Failure == nil || parsed.Failure.Kind != "deadlock" {
			t.Fatalf("seed %d: -stats-json failure = %+v, want kind deadlock", seed, parsed.Failure)
		}
		return
	}
	t.Fatal("no seed in 1..50 deadlocked the lock-inversion program")
}

// TestRecordFlagWritesReplayableTrace: -record writes checksummed JSONL
// whatever the extension, so a .json path reads back loss-free.
func TestRecordFlagWritesReplayableTrace(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	trace := filepath.Join(t.TempDir(), "out.json")
	c := cfg()
	c.policy, c.record = "log", trace
	if _, err := run(context.Background(), path, c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, dropped, err := event.ReadTrace(f)
	if err != nil {
		t.Fatalf("recorded trace unreadable: %v", err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d on an intact recording", dropped)
	}
	if tr.Len() == 0 {
		t.Error("empty recording")
	}
	// The recording replays race-free.
	if rs := detect.RunTrace(core.New(), tr); len(rs) != 0 {
		t.Errorf("replay found races: %v", rs)
	}
}

// TestRecordStreamFormat: -record has no extension switch, so .json and
// .jsonl paths get byte-identical checksummed JSONL under -sched det.
func TestRecordStreamFormat(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	dir := t.TempDir()
	var files [2][]byte
	for i, name := range []string{"out.json", "out.jsonl"} {
		c := cfg()
		c.policy, c.record = "log", filepath.Join(dir, name)
		if _, err := run(context.Background(), path, c); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(c.record)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if !bytes.HasPrefix(files[1], event.AppendHeader(nil, event.StreamFormatName, event.StreamFormatVersion)) {
		t.Errorf(".jsonl recording does not start with the stream header: %.60q", files[1])
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error(".json and .jsonl recordings differ")
	}
}

// TestRecordEveryBackendReplays: -record works for every runtime backend
// (the guarded ones are recorded outside their guard) and for none, and
// replaying each recording through the same backend gives the live
// run's race count.
func TestRecordEveryBackendReplays(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{"clean": cleanSrc, "racy": racySrc} {
		path := writeProgram(t, src)
		for _, e := range append(detectors.Runtime(), detectors.Entry{Name: "none"}) {
			c := cfg()
			c.detector, c.policy = e.Name, "log"
			c.record = filepath.Join(dir, name+"-"+e.Name+".jsonl")
			n, err := run(context.Background(), path, c)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e.Name, err)
			}
			f, err := os.Open(c.record)
			if err != nil {
				t.Fatal(err)
			}
			tr, dropped, err := event.ReadTrace(f)
			f.Close()
			if err != nil || dropped != 0 || tr.Len() == 0 {
				t.Fatalf("%s/%s: recording unreadable: %d actions, %d dropped, %v", name, e.Name, tr.Len(), dropped, err)
			}
			replayed := 0
			if e.New != nil {
				replayed = len(detect.RunTrace(e.New(core.DefaultOptions()), tr))
			}
			if name == "racy" && e.New != nil && n == 0 {
				t.Errorf("racy/%s: live run reported no race", e.Name)
			}
			if replayed != n {
				t.Errorf("%s/%s: live run reported %d races, replay %d", name, e.Name, n, replayed)
			}
		}
	}
}

func TestExploreFlag(t *testing.T) {
	racy := writeProgram(t, racySrc)
	n, err := exploreSchedules(racy, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("exploration found no racy schedule of an always-racy program")
	}
	if code := exitFor(n, err); code != resilience.ExitRace {
		t.Errorf("racy exploration exit code %d, want %d", code, resilience.ExitRace)
	}
	clean := writeProgram(t, cleanSrc)
	n, err = exploreSchedules(clean, 2000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("exploration found %d racy schedules of a race-free program", n)
	}
}

// TestExploreRefusesRunFlags: -explore runs its own schedules on the
// goldilocks engine, so a run flag it would ignore is a usage error that
// names the flag, and nothing is written or explored.
func TestExploreRefusesRunFlags(t *testing.T) {
	dir := t.TempDir()
	racy := writeProgram(t, racySrc)
	for _, args := range [][]string{
		{"-explore", "5", "-detector", "bogus", "-trace-locksets", "all", "-record", "x.jsonl"},
		{"-explore", "5", "-static", "chord"},
		{"-explore", "5", "-explore-bound", "2", "-stats-json", "s.json"},
	} {
		code, out := runMain(t, dir, append(args, racy)...)
		if code != resilience.ExitUsage {
			t.Errorf("%v: exit code %d, want %d\n%s", args, code, resilience.ExitUsage, out)
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && !strings.HasPrefix(a, "-explore") && !strings.Contains(out, a) {
				t.Errorf("%v: output does not name %s:\n%s", args, a, out)
			}
		}
		if strings.Contains(out, "explored") {
			t.Errorf("%v: explored despite the usage error:\n%s", args, out)
		}
	}
	for _, name := range []string{"x.jsonl", "s.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("%s written by a refused -explore run", name)
		}
	}
	// The explore flags alone are accepted.
	if code, out := runMain(t, dir, "-explore", "5", "-explore-bound", "2", racy); code != resilience.ExitRace {
		t.Errorf("-explore -explore-bound: exit code %d, want %d\n%s", code, resilience.ExitRace, out)
	}
}

// TestExploreFlagsNeedExplore: -explore-bound and -explore-timeout are
// read only by -explore, so a run without it refuses them with a usage
// error that names the flag, instead of running one ordinary schedule.
func TestExploreFlagsNeedExplore(t *testing.T) {
	dir := t.TempDir()
	racy := writeProgram(t, racySrc)
	for _, args := range [][]string{
		{"-explore-bound", "2"},
		{"-explore-timeout", "1s"},
		{"-sched", "det", "-policy", "log", "-explore-bound", "2", "-explore-timeout", "1s"},
		{"-explore", "0", "-explore-bound", "2"},
	} {
		code, out := runMain(t, dir, append(args, racy)...)
		if code != resilience.ExitUsage {
			t.Errorf("%v: exit code %d, want %d\n%s", args, code, resilience.ExitUsage, out)
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-explore-") && !strings.Contains(out, a) {
				t.Errorf("%v: output does not name %s:\n%s", args, a, out)
			}
		}
		if strings.Contains(out, "race on") {
			t.Errorf("%v: ran the program despite the usage error:\n%s", args, out)
		}
	}
}

// TestStatsReportVarsFreed: -stats and -stats-json report the engine's
// VarsFreed next to VarsTracked. Whether any object has been collected
// by the end of the run depends on the Go collector, so only the
// presence of the counter is checked here; internal/jrt tests its value.
func TestStatsReportVarsFreed(t *testing.T) {
	path := writeProgram(t, `
class Main {
	void main() {
		for (int i = 0; i < 50; i = i + 1) {
			int[] a = new int[20];
			a[0] = i;
		}
	}
}
`)
	dir := t.TempDir()
	errPath, jsonPath := filepath.Join(dir, "stderr"), filepath.Join(dir, "stats.json")
	errFile, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = errFile
	c := cfg()
	c.stats, c.statsJSON = true, jsonPath
	_, runErr := run(context.Background(), path, c)
	os.Stderr = stderr
	errFile.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	text, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte(" vars tracked, ")) || !bytes.Contains(text, []byte(" vars freed")) {
		t.Errorf("-stats output lacks the tracked/freed counts:\n%s", text)
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Engine map[string]any `json:"engine"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"VarsTracked", "VarsFreed"} {
		if _, ok := parsed.Engine[k]; !ok {
			t.Errorf("-stats-json engine section lacks %s", k)
		}
	}
}

// runCaptured runs path under c with os.Stderr redirected and returns
// the "race:" lines' variables and positions from stderr and the race
// records of the -stats-json document.
func runCaptured(t *testing.T, path string, c runConfig) (stderr []string, records []detect.RaceRecord) {
	t.Helper()
	dir := t.TempDir()
	errPath := filepath.Join(dir, "stderr")
	c.statsJSON = filepath.Join(dir, "stats.json")
	errFile, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = errFile
	_, runErr := run(context.Background(), path, c)
	os.Stderr = saved
	errFile.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	text, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^race: race on (\S+) at action (\d+) `).FindAllStringSubmatch(string(text), -1) {
		stderr = append(stderr, m[1]+"@"+m[2])
	}
	doc, err := os.ReadFile(c.statsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Races []detect.RaceRecord `json:"races"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	return stderr, parsed.Races
}

// TestRacePositionsMatchReplay: under the deterministic scheduler the
// runtime's races carry the index of their action in the run's order
// of detector actions, so stderr and -stats-json report the positions
// that racereplay (detect.RunTrace over the goldilocks engine) reports
// on the run's recording, with the engine attached directly as well as
// behind the recorder.
func TestRacePositionsMatchReplay(t *testing.T) {
	path := writeProgram(t, `
class D { int v; int w; }
class Main {
	D d;
	void racer() { d.v = 1; d.w = 1; }
	void main() {
		d = new D();
		thread t = spawn this.racer();
		d.w = 2;
		d.v = 2;
		join(t);
	}
}
`)
	dir := t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		c := cfg()
		c.policy, c.seed = "log", seed
		c.record = filepath.Join(dir, "rec.jsonl")
		recStderr, recRecords := runCaptured(t, path, c)
		f, err := os.Open(c.record)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := event.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range detect.RunTrace(core.New(), tr) {
			want = append(want, fmt.Sprintf("%v@%d", r.Var, r.Pos))
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: the recording replays race-free", seed)
		}
		c.record = ""
		directStderr, directRecords := runCaptured(t, path, c)
		for name, got := range map[string][]string{
			"recorded stderr":   recStderr,
			"recorded stats":    positions(recRecords),
			"unrecorded stderr": directStderr,
			"unrecorded stats":  positions(directRecords),
		} {
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, %s: races at %v, replay at %v", seed, name, got, want)
			}
		}
	}
}

func positions(records []detect.RaceRecord) []string {
	var out []string
	for _, r := range records {
		out = append(out, fmt.Sprintf("%s@%d", r.Var, r.Pos))
	}
	return out
}

// TestStatsJSONRaceRecords pins the race records of the -stats-json
// document, byte for byte, on a racy program. cmd/racereplay writes the
// same records (detect.Records) and pins its own.
func TestStatsJSONRaceRecords(t *testing.T) {
	path := writeProgram(t, racySrc)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	c := cfg()
	c.policy, c.statsJSON = "log", jsonPath
	if _, err := run(context.Background(), path, c); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Races json.RawMessage `json:"races"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	const want = `[
    {
      "var": "o2.f0",
      "access": "T2:write(o2.f0)",
      "pos": 7,
      "prev": "T1:write(o2.f0)",
      "provenance": {
        "var": "o2.f0",
        "prev": "T1:write(o2.f0)",
        "thread": "T2",
        "base": "{T1}",
        "final": "{T1}"
      }
    }
  ]`
	if got := string(parsed.Races); got != want {
		t.Errorf("-stats-json races:\n%s\nwant:\n%s", got, want)
	}
}
