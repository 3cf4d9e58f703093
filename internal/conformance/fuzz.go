package conformance

import (
	"math/rand"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/tracegen"
)

// This file is the coverage-guided fuzzing loop. Coverage is semantic,
// not branch-based: a trace's signature is which Figure 5 rules fired
// (a 12-bit mask from the spec engine's rule fires, including the
// channel rules 10–12), whether it raced, how many races, and a
// thread-count bucket. Traces with a never-seen signature join the
// corpus and become mutation parents; generation is steered toward
// rules the batch has under-exercised by biasing tracegen's
// synchronization-kind weights. The combination drives the batch to
// cover all rules quickly — including rule 9 (commit), which uniform
// generation starves at low TxnBias.

// signature is the semantic coverage key of one trace execution.
type signature struct {
	rules   uint16 // bit r set when Figure 5 rule r fired at least once
	racy    bool
	raceCnt int // number of races, capped
	threads int
}

func signatureOf(res Result) signature {
	var sig signature
	for r := 1; r <= obs.NumRules; r++ {
		if res.RuleFires[r] > 0 {
			sig.rules |= 1 << uint(r)
		}
	}
	sig.racy = res.Racy
	sig.raceCnt = min(res.Races, 4)
	sig.threads = min(res.Threads, 5)
	return sig
}

// Fuzzer runs traces through the conformance matrix, keeps a corpus of
// coverage-novel traces, and steers generation toward under-covered
// rules. It is deterministic for a given seed.
type Fuzzer struct {
	rng    *rand.Rand
	gen    tracegen.Config
	seen   map[signature]bool
	corpus []*event.Trace

	// Executed counts matrix runs; Racy counts ground-truth-racy traces.
	Executed int
	Racy     int
	// RuleFires accumulates total rule firings; RuleTraces counts traces
	// on which each rule fired at least once (the "no zero rows"
	// acceptance metric).
	RuleFires  [obs.NumRules + 1]uint64
	RuleTraces [obs.NumRules + 1]int
	// Failures collects every divergence found.
	Failures []*Divergence
}

// NewFuzzer returns a fuzzer seeded deterministically. cfg bounds the
// generated traces; a zero cfg gets tracegen.Default() plus two
// channels, so a default batch covers the channel rules 10–12 too.
func NewFuzzer(seed int64, cfg tracegen.Config) *Fuzzer {
	if cfg.Steps == 0 {
		cfg = tracegen.Default()
		cfg.Channels = 2
	}
	return &Fuzzer{
		rng:  rand.New(rand.NewSource(seed)),
		gen:  cfg,
		seen: make(map[signature]bool),
	}
}

// CorpusSize returns the number of coverage-novel traces retained.
func (f *Fuzzer) CorpusSize() int { return len(f.corpus) }

// NewCoverage returns the number of distinct coverage signatures seen.
func (f *Fuzzer) NewCoverage() int { return len(f.seen) }

// mutateFraction is the share of iterations that mutate a corpus parent
// instead of generating a fresh trace (once a corpus exists).
const mutateFraction = 0.5

// Next produces the next input: a mutation of a coverage-novel corpus
// member half the time, a freshly generated trace (rule-steered)
// otherwise.
func (f *Fuzzer) Next() *event.Trace {
	if len(f.corpus) > 0 && f.rng.Float64() < mutateFraction {
		parent := f.corpus[f.rng.Intn(len(f.corpus))]
		return Mutate(f.rng, parent)
	}
	cfg := f.gen
	cfg.SyncWeights = f.steerWeights()
	if f.RuleTraces[obs.RuleCommit] == 0 && f.Executed > 0 {
		// Rule 9 is reached through commits, not sync-kind choice.
		cfg.TxnBias = 0.5
	}
	return tracegen.Generate(f.rng, cfg)
}

// steerWeights biases the generator's synchronization-kind choice
// toward rules with few covering traces so far: each kind's weight is
// inversely proportional to how often its rule has been hit. Before
// anything has run the weights are uniform (nil).
func (f *Fuzzer) steerWeights() []float64 {
	if f.Executed == 0 {
		return nil
	}
	// tracegen sync kind -> Figure 5 rule exercised by that kind. A
	// chmake fires no rule itself, but is the structural prerequisite of
	// every channel op, so it rides on the least-covered channel rule.
	// When the configuration generates no channels, the generator only
	// consults the first NumSyncKinds entries and the channel weights
	// are inert.
	ruleOfKind := [tracegen.NumSyncKindsChan]int{
		tracegen.SyncAcquire:   obs.RuleAcquire,
		tracegen.SyncRelease:   obs.RuleRelease,
		tracegen.SyncVWrite:    obs.RuleVolatileWrite,
		tracegen.SyncVRead:     obs.RuleVolatileRead,
		tracegen.SyncFork:      obs.RuleFork,
		tracegen.SyncJoin:      obs.RuleJoin,
		tracegen.SyncAlloc:     obs.RuleAlloc,
		tracegen.SyncChanMake:  obs.RuleChanSend,
		tracegen.SyncChanSend:  obs.RuleChanSend,
		tracegen.SyncChanRecv:  obs.RuleChanRecv,
		tracegen.SyncChanClose: obs.RuleChanClose,
	}
	w := make([]float64, tracegen.NumSyncKindsChan)
	for k, rule := range ruleOfKind {
		w[k] = 1.0 / (1.0 + float64(f.RuleTraces[rule]))
	}
	least := f.RuleTraces[obs.RuleChanSend]
	for _, r := range []int{obs.RuleChanRecv, obs.RuleChanClose} {
		if f.RuleTraces[r] < least {
			least = f.RuleTraces[r]
		}
	}
	w[tracegen.SyncChanMake] = 1.0 / (1.0 + float64(least))
	return w
}

// Step runs one fuzzing iteration: produce an input, execute the
// matrix, fold the outcome into coverage. It returns the divergence
// found on this input, or nil.
func (f *Fuzzer) Step() *Divergence {
	tr := f.Next()
	res := Run(tr)
	f.Observe(tr, res)
	return res.Div
}

// Observe folds one executed result into the fuzzer's coverage state.
// Exported so a caller that runs the matrix itself (e.g. to interleave
// shrinking or parallel execution) can still feed the guidance map.
func (f *Fuzzer) Observe(tr *event.Trace, res Result) {
	f.Executed++
	if res.Racy {
		f.Racy++
	}
	for r := 1; r <= obs.NumRules; r++ {
		f.RuleFires[r] += res.RuleFires[r]
		if res.RuleFires[r] > 0 {
			f.RuleTraces[r]++
		}
	}
	if res.Div != nil {
		// Divergent traces never join the corpus — they become
		// counterexamples instead.
		f.Failures = append(f.Failures, res.Div)
		return
	}
	if sig := signatureOf(res); !f.seen[sig] {
		f.seen[sig] = true
		f.corpus = append(f.corpus, tr)
	}
}

// Run executes n fuzzing iterations and returns the divergences found
// (also retained in f.Failures).
func (f *Fuzzer) Run(n int) []*Divergence {
	start := len(f.Failures)
	for i := 0; i < n; i++ {
		f.Step()
	}
	return f.Failures[start:]
}
