package tracegen

import (
	"reflect"
	"testing"
)

// TestFromSeedConfigDeterministic pins the doc-comment promise of
// FromSeed/FromSeedConfig: one seed, one trace. Pinned generator seeds
// in other packages' tests and the benchmark's generated input rely on
// it. Each configuration is generated repeatedly per seed; the seed
// range is wide enough that threads holding several locks at once (the
// case a map-ordered release choice got wrong) occur many times.
func TestFromSeedConfigDeterministic(t *testing.T) {
	chans := Default()
	chans.Channels = 2
	manyLocks := Default()
	manyLocks.Locks = 4
	manyLocks.Steps = 200
	for name, cfg := range map[string]Config{
		"default":      Default(),
		"commit-heavy": CommitHeavy(),
		"channels":     chans,
		"many-locks":   manyLocks,
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 200; seed++ {
				want := FromSeedConfig(seed, cfg).Actions()
				for rep := 0; rep < 3; rep++ {
					if got := FromSeedConfig(seed, cfg).Actions(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: generation %d differs from the first", seed, rep+2)
					}
				}
			}
		})
	}
	if !reflect.DeepEqual(FromSeed(7).Actions(), FromSeedConfig(7, Default()).Actions()) {
		t.Fatal("FromSeed(7) differs from FromSeedConfig(7, Default())")
	}
}
