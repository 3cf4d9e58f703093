package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// ckptRaceKey mirrors the conformance harness's race identity: the
// global linearization position of the completing access plus the
// variable.
func ckptRaceKey(r detect.Race) string { return fmt.Sprintf("%d:%v", r.Pos, r.Var) }

func sortedKeys(races []detect.Race) []string {
	keys := make([]string, len(races))
	for i, r := range races {
		keys[i] = ckptRaceKey(r)
	}
	sort.Strings(keys)
	return keys
}

// checkpointTraces returns the round-trip corpus: the Section 2
// scenarios plus every counterexample trace in the conformance corpus.
func checkpointTraces(t *testing.T) map[string]*event.Trace {
	t.Helper()
	out := make(map[string]*event.Trace)
	for _, sc := range scenarios.All() {
		out["scenario-"+sc.Name] = sc.Trace
	}
	dir := filepath.Join("..", "conformance", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("opening %s: %v", e.Name(), err)
		}
		tr, dropped, err := event.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		if dropped != 0 {
			t.Fatalf("%s: %d corrupt records in checked-in corpus", e.Name(), dropped)
		}
		out["corpus-"+strings.TrimSuffix(e.Name(), ".jsonl")] = tr
	}
	// Commit-heavy marked traces: every-prefix cutting then lands inside
	// transactions mid-flight (between the commits of a publication
	// chain) and inside open txbegin/txend regions, so commit-set and
	// TL-element state must round-trip through the snapshot.
	for seed := int64(1); seed <= 3; seed++ {
		out[fmt.Sprintf("commit-heavy-%d", seed)] = tracegen.FromSeedConfig(seed, tracegen.CommitHeavy())
	}
	// A deterministic TL handoff: the cut between the two commits
	// snapshots the variable while its lockset carries the TL element.
	out["txn-handoff"] = event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		TxBegin(1).
		Commit(1, nil, []event.Variable{{Obj: 10, Field: 0}}).
		TxEnd(1).
		Commit(2, []event.Variable{{Obj: 10, Field: 0}}, nil).
		Write(2, 10, 0).
		Trace()
	if len(out) < 5 {
		t.Fatalf("suspiciously small corpus: %d traces", len(out))
	}
	return out
}

// runGlobal drives det over tr[from:] assigning global linearization
// positions, so verdicts from a restored engine are comparable to the
// uninterrupted run's.
func runGlobal(det detect.Detector, tr *event.Trace, from int) []detect.Race {
	var out []detect.Race
	for i := from; i < tr.Len(); i++ {
		for _, r := range det.Step(tr.At(i)) {
			r.Pos = i
			out = append(out, r)
		}
	}
	return out
}

// ckptConfigs are the engine configurations the round-trip test covers:
// the default configuration, an aggressive garbage collector (small
// retained list, infos advanced across checkpoints), and a tight memory
// budget (the governor's degradation ladder engages and must survive
// the restart). Every engine counts its rule fires, so rule-fire
// restoration is checked under each.
func ckptConfigs() map[string]core.Options {
	agg := core.DefaultOptions()
	agg.GCThreshold = 8
	agg.GCTrimFraction = 0.5

	budget := core.DefaultOptions()
	budget.GCThreshold = 0
	budget.MemoryBudget = 8

	// The non-default transaction semantics change which commits
	// synchronize, so the snapshot's TxnSemantics field and the
	// Xact/ReadsAllXact bits it guards must restore into identical
	// verdicts on the suffix.
	txnAtomic := core.DefaultOptions()
	txnAtomic.TxnSemantics = event.TxnAtomicOrder
	txnW2R := core.DefaultOptions()
	txnW2R.TxnSemantics = event.TxnWriteToRead

	return map[string]core.Options{
		"default":          core.DefaultOptions(),
		"gc-aggressive":    agg,
		"budget-8":         budget,
		"txn-atomic-order": txnAtomic,
		"txn-write-toread": txnW2R,
	}
}

// checkFastPathIgnored pins the frozen-API guarantee for the retired
// FastPath option, which perfbench still sets: an engine built with it
// off captures the same bytes as the default engine every stride
// actions of tr and at its end. The captures carry the rule-fire
// counts, so those are compared too. The option builds the default engine, so
// this is all the round-trip and reuse tests check of it: their
// fastpath-off cases would otherwise repeat the default's work.
func checkFastPathIgnored(t *testing.T, tr *event.Trace, stride int) {
	t.Helper()
	off := core.DefaultOptions()
	off.FastPath = false
	defEng, offEng := core.New(), core.NewEngine(off)
	for i := 0; i <= tr.Len(); i++ {
		if i%stride == 0 || i == tr.Len() {
			var a, b bytes.Buffer
			if err := defEng.Checkpoint(&a); err != nil {
				t.Fatal(err)
			}
			if err := offEng.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("action %d: FastPath off captures other bytes %s", i, firstDiff(b.Bytes(), a.Bytes()))
			}
		}
		if i < tr.Len() {
			defEng.Step(tr.At(i))
			offEng.Step(tr.At(i))
		}
	}
}

// TestCheckpointEveryPrefix is the restart-transparency wall: for every
// corpus trace and engine configuration, checkpoint at every prefix,
// restore into a fresh engine, replay the suffix, and require verdicts,
// Figure 5 rule-fire counts, and the complete Stats struct to equal the
// uninterrupted run's. A restored engine is indistinguishable from one
// that never stopped. The fastpath-off cases check the retired FastPath
// option against the default engine at every prefix instead.
func TestCheckpointEveryPrefix(t *testing.T) {
	traces := checkpointTraces(t)
	for cfgName, opts := range ckptConfigs() {
		for name, tr := range traces {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				base := core.NewEngine(opts)
				baseRaces := runGlobal(base, tr, 0)
				baseKeys := sortedKeys(baseRaces)
				baseStats := base.Stats()
				baseFires := base.RuleFires()

				for cut := 0; cut <= tr.Len(); cut++ {
					pref := core.NewEngine(opts)
					var got []detect.Race
					for i := 0; i < cut; i++ {
						for _, r := range pref.Step(tr.At(i)) {
							r.Pos = i
							got = append(got, r)
						}
					}

					var snap bytes.Buffer
					if err := pref.Checkpoint(&snap); err != nil {
						t.Fatalf("cut %d: checkpoint: %v", cut, err)
					}

					restored, err := core.RestoreEngine(bytes.NewReader(snap.Bytes()))
					if err != nil {
						t.Fatalf("cut %d: restore: %v", cut, err)
					}
					got = append(got, runGlobal(restored, tr, cut)...)

					if gk := sortedKeys(got); !equalStrings(gk, baseKeys) {
						t.Fatalf("cut %d: races %v, uninterrupted %v", cut, gk, baseKeys)
					}
					if gs := restored.Stats(); gs != baseStats {
						t.Fatalf("cut %d: stats diverged\nrestored:      %+v\nuninterrupted: %+v", cut, gs, baseStats)
					}
					if gf := restored.RuleFires(); gf != baseFires {
						t.Fatalf("cut %d: rule fires %v, uninterrupted %v", cut, gf, baseFires)
					}
				}
			})
		}
	}
	for name, tr := range traces {
		t.Run("fastpath-off/"+name, func(t *testing.T) { checkFastPathIgnored(t, tr, 1) })
	}
}

// TestCheckpointDetectsCorruption flips one byte of the serialized
// payload and requires restore to refuse it — a torn or bit-rotten
// snapshot must never silently restore a wrong detector.
func TestCheckpointDetectsCorruption(t *testing.T) {
	tr := scenarios.All()[0].Trace
	e := core.NewEngine(core.DefaultOptions())
	for i := 0; i < tr.Len(); i++ {
		e.Step(tr.At(i))
	}
	var snap bytes.Buffer
	if err := e.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Sanity: the pristine snapshot restores.
	if _, err := core.RestoreEngine(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("pristine restore: %v", err)
	}

	raw := snap.Bytes()
	// Flip a byte inside the payload (past the header line, before the
	// trailing CRC field at line end).
	idx := bytes.IndexByte(raw, '\n') + 40
	corrupt := append([]byte(nil), raw...)
	if corrupt[idx] == 'x' {
		corrupt[idx] = 'y'
	} else {
		corrupt[idx] = 'x'
	}
	if _, err := core.RestoreEngine(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted snapshot restored without error")
	}

	// A torn snapshot (header only) must fail too.
	torn := raw[:bytes.IndexByte(raw, '\n')+1]
	if _, err := core.RestoreEngine(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn snapshot restored without error")
	}

	// Garbage must fail.
	if _, err := core.RestoreEngine(strings.NewReader("not a checkpoint\n")); err == nil {
		t.Fatal("garbage restored without error")
	}
}

// TestCheckpointUnencodableOptions: a NaN option has no JSON form, so
// the checkpoint fails rather than write a file restore cannot read.
func TestCheckpointUnencodableOptions(t *testing.T) {
	opts := core.DefaultOptions()
	opts.GCTrimFraction = math.NaN()
	if err := core.NewEngine(opts).Checkpoint(io.Discard); err == nil {
		t.Fatal("checkpoint with a NaN option succeeded")
	}
}

// reencode restores snap and checkpoints the restored engine again.
func reencode(t testing.TB, snap []byte) []byte {
	t.Helper()
	e, err := core.RestoreEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var out bytes.Buffer
	if err := e.Checkpoint(&out); err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	return out.Bytes()
}

// firstDiff locates the first differing byte of two encodings.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}

// TestCheckpointGoldens pins the checkpoint format to bytes: every
// testdata/*.ckpt was written by an earlier build of the encoder (one
// empty engine, and engines with and without rule counts, channels,
// commits, an aggressive collector, a degraded governor,
// variables disabled after a race and a variable quarantined by an
// injected panic), and each must restore and re-encode byte for byte.
func TestCheckpointGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden checkpoints found (%v)", err)
	}
	covered := map[string]bool{`"fast_path":true`: false, `"disabled":true`: false, `"quarantined":true`: false}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for field := range covered {
			covered[field] = covered[field] || bytes.Contains(want, []byte(field))
		}
		if got := reencode(t, want); !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoding differs %s", filepath.Base(path), firstDiff(got, want))
		}
	}
	for field, seen := range covered {
		if !seen {
			t.Errorf("no golden carries %s", field)
		}
	}
}

// TestCheckpointRetiredOptions restores each checkpoint under
// testdata/restore-only, written by an earlier build with settings that
// have since become constants, so it does not re-encode byte for byte
// (which is why it sits outside testdata/*.ckpt). Each must restore,
// a second re-encode must equal the first, and each passes the check
// named after it.
func TestCheckpointRetiredOptions(t *testing.T) {
	checks := map[string]func(t *testing.T, snap, again []byte){
		"retired-knobs.ckpt":         checkRetiredKnobs,
		"channels-fastpath-off.ckpt": checkFastPathOff,
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "restore-only", "*.ckpt"))
	if err != nil || len(paths) != len(checks) {
		t.Fatalf("restore-only checkpoints %v, want one per check (%v)", paths, err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			check, ok := checks[name]
			if !ok {
				t.Fatalf("no check for %s", name)
			}
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			again := reencode(t, snap)
			if twice := reencode(t, again); !bytes.Equal(twice, again) {
				t.Errorf("second re-encoding differs %s", firstDiff(twice, again))
			}
			check(t, snap, again)
		})
	}
}

// checkRetiredKnobs: the checkpoint's Options still had SC3MaxSegment,
// Memoize, HBCache and VarShards, from an engine with all four off (0,
// false, false, 1 shard) stepped through the first half of
// tracegen.FromSeed(17). Those settings never changed a verdict, so
// restore ignores them: the restored engine must report the races of an
// uninterrupted run on the second half, and a re-encode writes the fixed
// values.
func checkRetiredKnobs(t *testing.T, snap, again []byte) {
	if !bytes.Contains(snap, []byte(`"var_shards":1}`)) || bytes.Contains(snap, []byte(`"memoize"`)) {
		t.Fatal("restore-only checkpoint does not carry the retired settings")
	}
	tr := tracegen.FromSeed(17)
	cut := tr.Len() / 2
	var want []detect.Race
	for _, r := range runGlobal(core.New(), tr, 0) {
		if r.Pos >= cut {
			want = append(want, r)
		}
	}
	if len(want) == 0 {
		t.Fatal("no races after the cut: the check is vacuous")
	}
	e, err := core.RestoreEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := sortedKeys(runGlobal(e, tr, cut)); !equalStrings(got, sortedKeys(want)) {
		t.Errorf("restored run races %v, uninterrupted %v", got, sortedKeys(want))
	}
	for _, field := range []string{`"sc3_max_segment":512,`, `"memoize":true,"hb_cache":true,`, `"var_shards":64}`} {
		if !bytes.Contains(again, []byte(field)) {
			t.Errorf("re-encoding lacks %s", field)
		}
	}
}

// checkFastPathOff: the checkpoint was written by an engine with a
// channel-heavy history and the retired FastPath option off. Its source
// trace is not known, so it is checked against itself: a re-encode must
// equal the file with the constant "fast_path":true added, the CRC
// aside. That pins the channel encoding byte for byte and the restored
// Stats to the counters the file carries.
func checkFastPathOff(t *testing.T, snap, again []byte) {
	if bytes.Contains(snap, []byte(`"fast_path"`)) || !bytes.Contains(snap, []byte(`"chans":`)) {
		t.Fatal("restore-only checkpoint does not carry a channel history with the fast path off")
	}
	want := bytes.Replace(snap, []byte(`"hb_cache":true,`), []byte(`"hb_cache":true,"fast_path":true,`), 1)
	withoutCRC := func(b []byte) []byte { return b[:bytes.LastIndex(b, []byte(`"crc":`))] }
	if got, want := withoutCRC(again), withoutCRC(want); !bytes.Equal(got, want) {
		t.Errorf("re-encoding differs from the file plus \"fast_path\":true %s", firstDiff(got, want))
	}
}

// TestCheckpointReencodeIdentical requires Checkpoint -> RestoreEngine
// -> Checkpoint to reproduce the same bytes at every cut of the
// round-trip corpus and of generated traces, under every checkpoint
// test configuration: the encoding is a function of the detector state
// alone.
func TestCheckpointReencodeIdentical(t *testing.T) {
	traces := checkpointTraces(t)
	chans := tracegen.Default()
	chans.Channels = 2
	for seed := int64(1); seed <= 5; seed++ {
		traces[fmt.Sprintf("tracegen-%d", seed)] = tracegen.FromSeed(seed)
		traces[fmt.Sprintf("tracegen-chan-%d", seed)] = tracegen.FromSeedConfig(seed, chans)
	}
	for cfgName, opts := range ckptConfigs() {
		for name, tr := range traces {
			e := core.NewEngine(opts)
			for cut := 0; cut <= tr.Len(); cut++ {
				var snap bytes.Buffer
				if err := e.Checkpoint(&snap); err != nil {
					t.Fatalf("%s/%s cut %d: checkpoint: %v", cfgName, name, cut, err)
				}
				if got := reencode(t, snap.Bytes()); !bytes.Equal(got, snap.Bytes()) {
					t.Fatalf("%s/%s cut %d: re-encoding differs %s", cfgName, name, cut, firstDiff(got, snap.Bytes()))
				}
				if cut < tr.Len() {
					e.Step(tr.At(cut))
				}
			}
		}
	}
}

// ckptConfigNames lists ckptConfigs in a fixed order, so a fuzz input's
// config index names the same configuration on every run.
func ckptConfigNames() []string {
	names := make([]string, 0, len(ckptConfigs()))
	for name := range ckptConfigs() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkIncremental steps one engine through tr and captures it every
// stride actions (and at the end). A capture reuses the bytes of every
// variable left unchanged since the previous one, so each is compared
// with the first capture of an engine stepped through the same prefix,
// which has nothing to reuse. Stale reused bytes restore into a
// consistent engine as often as not, so the re-encode identity alone
// would miss them; it is checked too.
func checkIncremental(t testing.TB, cfgName string, tr *event.Trace, stride int) {
	t.Helper()
	opts := ckptConfigs()[cfgName]
	newEngine := func() *core.Engine { return core.NewEngine(opts) }
	capture := func(e *core.Engine, at int) []byte {
		var snap bytes.Buffer
		if err := e.Checkpoint(&snap); err != nil {
			t.Fatalf("%s stride %d action %d: checkpoint: %v", cfgName, stride, at, err)
		}
		return snap.Bytes()
	}
	e := newEngine()
	for i := 0; i <= tr.Len(); i++ {
		if i%stride == 0 || i == tr.Len() {
			snap := capture(e, i)
			fresh := newEngine()
			for j := 0; j < i; j++ {
				fresh.Step(tr.At(j))
			}
			if want := capture(fresh, i); !bytes.Equal(snap, want) {
				t.Fatalf("%s stride %d action %d: incremental capture differs from a fresh engine's %s",
					cfgName, stride, i, firstDiff(snap, want))
			}
			if again := reencode(t, snap); !bytes.Equal(snap, again) {
				t.Fatalf("%s stride %d action %d: restored capture differs %s", cfgName, stride, i, firstDiff(snap, again))
			}
		}
		if i < tr.Len() {
			e.Step(tr.At(i))
		}
	}
}

// incrementalTrace is the generated trace FuzzCheckpointIncremental and
// TestCheckpointIncrementalMatchesFresh use for a seed: long enough for
// variables to go clean and dirty again many times between captures.
func incrementalTrace(seed int64) *event.Trace {
	cfg := tracegen.Default()
	cfg.Steps = 100
	cfg.Objects = 5
	if seed%2 == 0 {
		cfg.Channels = 2
	}
	return tracegen.FromSeedConfig(seed, cfg)
}

// TestCheckpointIncrementalMatchesFresh is the reuse wall: under every
// checkpoint test configuration, over the round-trip corpus and
// generated traces, at several capture strides, an engine's repeated
// captures equal fresh ones. Dropping the invalidation of any state
// mutation (an access, an Info advanced by the collector or by an eager
// sweep, a shed happens-before cache) makes some capture here copy
// stale bytes. The fastpath-off cases check the retired FastPath option
// against the default engine at each stride instead.
func TestCheckpointIncrementalMatchesFresh(t *testing.T) {
	traces := checkpointTraces(t)
	for seed := int64(1); seed <= 10; seed++ {
		traces[fmt.Sprintf("tracegen-%d", seed)] = incrementalTrace(seed)
	}
	for _, cfgName := range ckptConfigNames() {
		for name, tr := range traces {
			for _, stride := range []int{1, 5} {
				t.Run(fmt.Sprintf("%s/%s/%d", cfgName, name, stride), func(t *testing.T) {
					checkIncremental(t, cfgName, tr, stride)
				})
			}
		}
	}
	for name, tr := range traces {
		for _, stride := range []int{1, 5} {
			t.Run(fmt.Sprintf("fastpath-off/%s/%d", name, stride), func(t *testing.T) {
				checkFastPathIgnored(t, tr, stride)
			})
		}
	}
}

// FuzzCheckpointIncremental checks TestCheckpointIncrementalMatchesFresh's
// property over generated traces: seed picks the trace, config the
// checkpoint test configuration and stride the capture interval.
func FuzzCheckpointIncremental(f *testing.F) {
	for cfg := uint8(0); cfg < 6; cfg++ {
		f.Add(int64(cfg)+1, cfg, uint8(1+cfg*5))
	}
	names := ckptConfigNames()
	f.Fuzz(func(t *testing.T, seed int64, config, stride uint8) {
		checkIncremental(t, names[int(config)%len(names)], incrementalTrace(seed), int(stride%32)+1)
	})
}
