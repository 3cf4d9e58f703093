package detectors_test

import (
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
)

// lockedSrc is race-free under every backend, the basic lockset
// included: each shared access, initialization too, holds Main's lock.
const lockedSrc = `
class Counter { int n; }
class Main {
	Counter c;
	void work() { synchronized (this) { c.n = c.n + 1; } }
	void main() {
		synchronized (this) { c = new Counter(); }
		thread a = spawn this.work();
		thread b = spawn this.work();
		join(a);
		join(b);
		synchronized (this) { print(c.n); }
	}
}
`

func TestRegistry(t *testing.T) {
	for _, e := range detectors.All() {
		t.Run(e.Name, func(t *testing.T) {
			if got := e.New(core.DefaultOptions()).Name(); got != e.Name {
				t.Errorf("Name() = %q, want %q", got, e.Name)
			}
			if got, ok := detectors.Lookup(detectors.All(), e.Name); !ok || got.Name != e.Name {
				t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
			}
			_, runtime := detectors.Lookup(detectors.Runtime(), e.Name)
			if runtime != (e.Precision != detectors.Reference) {
				t.Fatalf("runtime entry = %v for precision %d", runtime, e.Precision)
			}
			if !runtime {
				return
			}
			races, out, err := mj.RunSource(lockedSrc, jrt.Config{
				Detector: jrt.Serialize(e.New(core.DefaultOptions())),
				Policy:   jrt.Log,
				Mode:     jrt.Deterministic,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(races) != 0 {
				t.Errorf("%d races on a race-free program: %v", len(races), &races[0])
			}
			if out != "2\n" {
				t.Errorf("output %q, want 2", out)
			}
		})
	}
	if _, ok := detectors.Lookup(detectors.All(), "bogus"); ok {
		t.Error("unknown name found")
	}
}
