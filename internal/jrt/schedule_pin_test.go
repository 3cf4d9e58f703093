package jrt_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/explore"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/resilience"
)

// recordingHash runs src under the deterministic scheduler with the
// given seed, recording through the Goldilocks engine, and summarizes
// the run: the FNV-64a hash of the recorded actions (one String per
// line), their count, the race count, and the blocked threads of a
// deadlock report, if the run ended in one.
func recordingHash(t *testing.T, src string, seed int64) string {
	t.Helper()
	rec := jrt.Record(core.New())
	rt := jrt.NewRuntime(jrt.Config{Detector: rec, Policy: jrt.Log, Mode: jrt.Deterministic, Seed: seed})
	interp, err := mj.NewInterp(mj.MustCheck(src), mj.InterpConfig{Runtime: rt, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	races, err := interp.Run()
	tr := rec.Trace()
	h := fnv.New64a()
	for i := 0; i < tr.Len(); i++ {
		fmt.Fprintln(h, tr.At(i))
	}
	out := fmt.Sprintf("%016x n=%d races=%d", h.Sum64(), tr.Len(), len(races))
	// The interpreter reports a deadlock that unwinds an MJ thread as
	// its run error.
	var rep *resilience.Report
	if rep = rt.Failure(); rep == nil {
		errors.As(err, &rep)
	}
	if rep != nil {
		out += fmt.Sprintf(" %v blocked=%v", rep.Kind, rep.Blocked)
	}
	return out
}

// deadlockPinSrc takes two monitors in opposite orders, main in one
// order and a spawned thread in the other; some seeds deadlock.
const deadlockPinSrc = `
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
`

// TestSchedulePins pins the deterministic scheduler's schedules: for
// every examples/mj program, two Table 1 programs at test scale and a
// lock-inversion program, seeds 1-3, the recorded linearization must
// hash to the literal below. The literals were taken from the
// goroutine-per-thread scheduler that the coroutine driver replaced; a
// scheduler change that alters any Chooser pool, or the order of its
// candidates, changes a hash.
func TestSchedulePins(t *testing.T) {
	want := map[string]string{
		"deadlock/seed=1":        "56f854dc8b91a992 n=23 races=0",
		"deadlock/seed=2":        "b3d435e3b92756f5 n=13 races=0 deadlock blocked=[{T1 [o3]} {T2 [o2]}]",
		"deadlock/seed=3":        "eab00efa44247bd8 n=23 races=0",
		"handshake.mj/seed=1":    "8decfb7dbdcbcd57 n=15 races=0",
		"handshake.mj/seed=2":    "98453fc924423e83 n=15 races=0",
		"handshake.mj/seed=3":    "228f007eceaa7de7 n=17 races=0",
		"philosophers.mj/seed=1": "4a34dd2db4f6b313 n=2597 races=0",
		"philosophers.mj/seed=2": "4e2790116ce18857 n=2594 races=0",
		"philosophers.mj/seed=3": "fa4b9e79c2b2c5a5 n=2591 races=0",
		"pipeline.mj/seed=1":     "0d0e2c2a9f8199fe n=38 races=0",
		"pipeline.mj/seed=2":     "8ba4f1b5d622bd50 n=38 races=0",
		"pipeline.mj/seed=3":     "c2c401f348454730 n=38 races=0",
		"racy.mj/seed=1":         "a76962254329d4cb n=9 races=1",
		"racy.mj/seed=2":         "56fa6da04a78430d n=9 races=1",
		"racy.mj/seed=3":         "56fa6da04a78430d n=9 races=1",
		"txbank.mj/seed=1":       "18e30a5b99374e83 n=563 races=0",
		"txbank.mj/seed=2":       "757e09fe8f572fd1 n=563 races=0",
		"txbank.mj/seed=3":       "002e923432727a3f n=563 races=0",
		"philo/seed=1":           "f0ff18b585053541 n=1697 races=0",
		"philo/seed=2":           "9c9b5a9fee5cc30d n=1709 races=0",
		"philo/seed=3":           "78687288cc3b79fc n=1712 races=0",
		"sor2/seed=1":            "639e7c34a535668f n=7097 races=0",
		"sor2/seed=2":            "c1eb807214a974ce n=7191 races=0",
		"sor2/seed=3":            "c21a8445986676bb n=7067 races=0",
	}
	progs := map[string]string{"deadlock": deadlockPinSrc}
	files, err := filepath.Glob("../../examples/mj/*.mj")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = string(src)
	}
	for _, w := range bench.Table1Workloads() {
		if w.Name == "philo" || w.Name == "sor2" {
			progs[w.Name] = w.Instantiate(false)
		}
	}
	for name, src := range progs {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			if got := recordingHash(t, src, seed); got != want[key] {
				t.Errorf("%s: got %q, want %q", key, got, want[key])
			}
		}
	}
}

// explorePinSrc races only in the schedules where main reads the flag
// before the writer publishes it.
const explorePinSrc = `
class D { int v; volatile boolean ready; }
class Main {
	D d;
	void writer() { d.v = 1; d.ready = true; }
	void main() {
		d = new D();
		thread t = spawn this.writer();
		if (!d.ready) { d.v = 2; }
		join(t);
	}
}
`

// TestExplorePin pins systematic exploration's schedule and race counts
// on explorePinSrc, with and without a preemption bound. The dfsChooser
// sees every pool size the scheduler offers, and the hash covers every
// run's decision sequence, so a changed pool changes the result.
func TestExplorePin(t *testing.T) {
	body := func(c jrt.Chooser) int {
		rt := jrt.NewRuntime(jrt.Config{Detector: core.New(), Policy: jrt.Log, Mode: jrt.Deterministic, Chooser: c})
		interp, err := mj.NewInterp(mj.MustCheck(explorePinSrc), mj.InterpConfig{Runtime: rt, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		races, _ := interp.Run()
		return len(races)
	}
	for _, c := range []struct {
		bound int
		want  string
	}{
		{0, "schedules=638 racy=632 exhausted=true truncated=0 runs=8341bb238e12ca35"},
		{2, "schedules=47 racy=43 exhausted=true truncated=0 runs=07426521e4694114"},
	} {
		h := fnv.New64a()
		visit := func(r explore.Run) { fmt.Fprintln(h, r.Choices, r.Races) }
		res := explore.Schedules(explore.Options{MaxSchedules: 2000, PreemptionBound: c.bound}, body, visit)
		got := fmt.Sprintf("schedules=%d racy=%d exhausted=%v truncated=%d runs=%016x",
			res.Schedules, res.Racy, res.Exhausted, res.Truncated, h.Sum64())
		if got != c.want {
			t.Errorf("explore, preemption bound %d: got %q, want %q", c.bound, got, c.want)
		}
	}
}
