package core_test

import (
	"fmt"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/tracegen"
)

// TestTxnSemanticsProperty extends the Theorem 1 property to every
// implemented transaction semantics: under each interpretation of
// strong atomicity, the spec engine, the optimized engine, and the
// vector-clock detector must agree with the semantics-parameterized
// oracle on transaction-dense random traces, channel-free and with two
// channels.
func TestTxnSemanticsProperty(t *testing.T) {
	cfg := tracegen.Default()
	cfg.TxnBias = 0.6
	cfg.SyncBias = 0.3
	cfg.Steps = 70
	for _, sem := range event.AllTxnSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			for _, channels := range []int{0, 2} {
				cfg := cfg
				cfg.Channels = channels
				for seed := int64(0); seed < 200; seed++ {
					tr := tracegen.FromSeedConfig(seed, cfg)
					pos, vars, racy := oracleFirstSem(tr, sem)

					if r := detect.FirstRace(core.NewSpecEngineSem(sem), tr); !agreesWithOracle(r, pos, vars, racy) {
						t.Fatalf("channels %d seed %d: spec = %v, oracle pos %d vars %v racy %v", channels, seed, r, pos, vars, racy)
					}
					opts := core.DefaultOptions()
					opts.TxnSemantics = sem
					if r := detect.FirstRace(core.NewEngine(opts), tr); !agreesWithOracle(r, pos, vars, racy) {
						t.Fatalf("channels %d seed %d: engine = %v, oracle pos %d vars %v racy %v", channels, seed, r, pos, vars, racy)
					}
					noSC := opts
					noSC.SC1, noSC.SC2, noSC.SC3, noSC.XactSC = false, false, false, false
					if r := detect.FirstRace(core.NewEngine(noSC), tr); !agreesWithOracle(r, pos, vars, racy) {
						t.Fatalf("channels %d seed %d: engine-noSC = %v, oracle pos %d vars %v racy %v", channels, seed, r, pos, vars, racy)
					}
					if r := detect.FirstRace(hb.NewDetectorSem(sem), tr); !agreesWithOracle(r, pos, vars, racy) {
						t.Fatalf("channels %d seed %d: vectorclock = %v, oracle pos %d vars %v racy %v", channels, seed, r, pos, vars, racy)
					}
				}
			}
		})
	}
}

func oracleFirstSem(tr *event.Trace, sem event.TxnSemantics) (int, map[string]bool, bool) {
	return oracleFirst(hb.NewOracleSem(tr, sem))
}

// TestSemanticsOrdering: atomic-order is the strongest interpretation
// and write-to-read the weakest — a trace race-free under write-to-read
// is race-free under shared-variable, and race-free under
// shared-variable implies race-free under atomic-order.
func TestSemanticsOrdering(t *testing.T) {
	cfg := tracegen.Default()
	cfg.TxnBias = 0.6
	cfg.Steps = 70
	for seed := int64(0); seed < 200; seed++ {
		tr := tracegen.FromSeedConfig(seed, cfg)
		_, w2r := hb.NewOracleSem(tr, event.TxnWriteToRead).FirstRacePos()
		_, shared := hb.NewOracleSem(tr, event.TxnSharedVariable).FirstRacePos()
		_, atomicOrd := hb.NewOracleSem(tr, event.TxnAtomicOrder).FirstRacePos()
		if !w2r && shared {
			t.Fatalf("seed %d: race-free under write-to-read but racy under shared-variable", seed)
		}
		if !shared && atomicOrd {
			t.Fatalf("seed %d: race-free under shared-variable but racy under atomic-order", seed)
		}
	}
}

// TestSemanticsDiffer: the interpretations are genuinely different —
// there are traces whose verdicts diverge.
func TestSemanticsDiffer(t *testing.T) {
	v := event.Variable{Obj: 10, Field: 0}
	w := event.Variable{Obj: 11, Field: 0}

	// Disjoint commits order the threads only under atomic-order:
	// T1 writes x, commits on v; T2 commits on w, then writes x.
	x := event.NewBuilder().
		Fork(1, 2).
		Write(1, 20, 0).
		Commit(1, nil, []event.Variable{v}).
		Commit(2, nil, []event.Variable{w}).
		Write(2, 20, 0).
		Trace()
	if _, racy := hb.NewOracleSem(x, event.TxnAtomicOrder).FirstRacePos(); racy {
		t.Error("atomic-order: disjoint commits must still order the writes")
	}
	if _, racy := hb.NewOracleSem(x, event.TxnSharedVariable).FirstRacePos(); !racy {
		t.Error("shared-variable: disjoint commits must not order the writes")
	}

	// A read-read commit pair orders the threads under shared-variable
	// but not under write-to-read (no publication).
	y := event.NewBuilder().
		Fork(1, 2).
		Write(1, 20, 0).
		Commit(1, []event.Variable{v}, nil). // T1 reads v
		Commit(2, []event.Variable{v}, nil). // T2 reads v
		Write(2, 20, 0).
		Trace()
	if _, racy := hb.NewOracleSem(y, event.TxnSharedVariable).FirstRacePos(); racy {
		t.Error("shared-variable: common variable must order the commits")
	}
	if _, racy := hb.NewOracleSem(y, event.TxnWriteToRead).FirstRacePos(); !racy {
		t.Error("write-to-read: read-read commits must not order the writes")
	}

	// Writer-to-reader publication orders under write-to-read too.
	z := event.NewBuilder().
		Fork(1, 2).
		Write(1, 20, 0).
		Commit(1, nil, []event.Variable{v}). // T1 writes v
		Commit(2, []event.Variable{v}, nil). // T2 reads v
		Write(2, 20, 0).
		Trace()
	if _, racy := hb.NewOracleSem(z, event.TxnWriteToRead).FirstRacePos(); racy {
		t.Error("write-to-read: publication must order the writes")
	}
}

// TestCommitEscalationSemantics hands a thread-owned variable to
// another thread through nested and interleaved commit(R,W) sequences,
// including R∩W overlaps and semantics-sensitive disjoint sets. Under
// every TxnSemantics interpretation the engine's verdict must match the
// case's ground truth, and its races and Figure 5 rule fires the
// specification's.
func TestCommitEscalationSemantics(t *testing.T) {
	const (
		x event.Addr = 10
		y event.Addr = 11
		w event.Addr = 12 // warm-up object: a thread-owned plain write
	)
	vx := event.Variable{Obj: x, Field: 0}
	vy := event.Variable{Obj: y, Field: 0}
	cases := []struct {
		name string
		tr   *event.Trace
		// racy[sem] is the expected verdict under each interpretation.
		racy map[event.TxnSemantics]bool
	}{
		{
			// Publication edge W∩R': synchronized under all three.
			name: "commit-publication",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, nil).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
		{
			// Disjoint variable sets: only the atomic-order interpretation
			// makes the two commits synchronize.
			name: "commit-disjoint-sets",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, nil, []event.Variable{vy}).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: true,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    true,
			},
		},
		{
			// Read-read overlap: shared-variable and atomic-order
			// synchronize (R∪W intersects), write-to-read does not (W∩R'
			// is empty).
			name: "commit-read-read",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, []event.Variable{vx}, nil).
				Commit(2, []event.Variable{vx}, nil).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    true,
			},
		},
		{
			// R∩W in both commits: the overlap generalizes to a write, so
			// every interpretation synchronizes.
			name: "commit-rw-overlap",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, []event.Variable{vx}, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, []event.Variable{vx}).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
		{
			// Interleaved commit chains across three threads: x publishes
			// to t2, which republishes through y to t1 — a nested
			// publication chain the engine must follow rung by rung.
			name: "commit-chain",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, []event.Variable{vy}).
				Commit(1, []event.Variable{vy}, nil).
				Read(1, y, 0).
				Write(2, x, 0). // still inside t2's publication: no race
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
	}
	for _, c := range cases {
		for _, sem := range event.AllTxnSemantics() {
			t.Run(fmt.Sprintf("%s/%v", c.name, sem), func(t *testing.T) {
				checkAgainstSpec(t, c.tr, sem, c.racy[sem])
			})
		}
	}
}
