// Package obs is the detector telemetry layer: a low-overhead metrics
// registry (atomic counters, gauges, histograms, ring-buffered time
// series), an optional structured lockset-transition trace hook, race
// provenance records, and live introspection endpoints (/metrics in
// Prometheus text format, /debug/vars in JSON, net/http/pprof).
//
// The package deliberately sits below every detector package: it
// imports only internal/event and the standard library, so
// internal/core, internal/jrt, internal/bench and the commands can all
// register their metrics without cycles.
//
// Design constraints (see docs/OBSERVABILITY.md):
//
//   - The engines own their counters (internal/core): per-rule fires,
//     walk-rule hits, walk depth and shard contention are always
//     counted, on the engine's stat stripes or beside the locks the
//     counted action already holds, so no counter adds a contended
//     cache line to the access hot path.
//   - Hot paths use only atomic counters; ring buffers and string
//     formatting are confined to the trace hook (opt-in per variable
//     filter) and to race provenance (built only when a race is
//     detected, which ends checking for that variable).
//   - Counters must be deterministic: replaying one linearization twice
//     — or through the spec and optimized engines — yields identical
//     per-rule fire counts (TestMetricsDeterminism pins this).
package obs

import "goldilocks/internal/event"

// The canonical numbering of the Figure 5 lockset update rules, used by
// the per-rule fire counters, the trace hook, and provenance records.
// One rule fires per processed action, which makes the counts
// representation-independent: the eager SpecEngine and the lazy
// optimized Engine agree on them for the same linearization.
const (
	// RuleAccess (rule 1): a race-free plain access by t resets
	// LS(o,d) := {t}.
	RuleAccess = 1
	// RuleRelease (rule 2): rel(t, o) — if t ∈ LS, add the lock (o, l).
	RuleRelease = 2
	// RuleAcquire (rule 3): acq(t, o) — if (o, l) ∈ LS, add t.
	RuleAcquire = 3
	// RuleVolatileWrite (rule 4): write(t, o, v) — if t ∈ LS, add (o, v).
	RuleVolatileWrite = 4
	// RuleVolatileRead (rule 5): read(t, o, v) — if (o, v) ∈ LS, add t.
	RuleVolatileRead = 5
	// RuleFork (rule 6): fork(t, u) — if t ∈ LS, add u.
	RuleFork = 6
	// RuleJoin (rule 7): join(t, u) — if u ∈ LS, add t.
	RuleJoin = 7
	// RuleAlloc (rule 8): alloc(t, o) — reset the locksets of o's fields.
	RuleAlloc = 8
	// RuleCommit (rule 9): commit(t, R, W) — the transactional
	// synchronizes-with rule under the configured semantics.
	RuleCommit = 9
	// RuleChanSend (rule 10): send(t, c) — on the message's conveyor-slot
	// element e: if e ∈ LS, add t (acquire the slot's prior recv), then
	// if t ∈ LS, add e (release the message to its recv).
	RuleChanSend = 10
	// RuleChanRecv (rule 11): recv(t, c) — the dual of rule 10 on the
	// same slot element; for a drained closed channel, acquire-only from
	// the channel's closed element.
	RuleChanRecv = 11
	// RuleChanClose (rule 12): close(t, c) — if t ∈ LS, add the channel's
	// closed element (broadcast release to all later drain recvs).
	RuleChanClose = 12

	// NumRules is the count of lockset update rules: the nine Figure 5
	// rules plus the three channel extensions; valid rule numbers are
	// 1..NumRules.
	NumRules = 12
)

// RuleOf maps an action kind to the update rule it triggers, or 0 for
// kinds that trigger none (plain data accesses trigger RuleAccess, but
// only after their happens-before check passes — callers count those at
// the access site, not per action kind).
func RuleOf(k event.Kind) int {
	switch k {
	case event.KindRelease:
		return RuleRelease
	case event.KindAcquire:
		return RuleAcquire
	case event.KindVolatileWrite:
		return RuleVolatileWrite
	case event.KindVolatileRead:
		return RuleVolatileRead
	case event.KindFork:
		return RuleFork
	case event.KindJoin:
		return RuleJoin
	case event.KindAlloc:
		return RuleAlloc
	case event.KindCommit:
		return RuleCommit
	case event.KindChanSend:
		return RuleChanSend
	case event.KindChanRecv:
		return RuleChanRecv
	case event.KindChanClose:
		return RuleChanClose
	}
	return 0
}

// ruleNames index by rule number; 0 is unused.
var ruleNames = [NumRules + 1]string{
	RuleAccess:        "access-reset",
	RuleRelease:       "release",
	RuleAcquire:       "acquire",
	RuleVolatileWrite: "volatile-write",
	RuleVolatileRead:  "volatile-read",
	RuleFork:          "fork",
	RuleJoin:          "join",
	RuleAlloc:         "alloc",
	RuleCommit:        "commit",
	RuleChanSend:      "chan-send",
	RuleChanRecv:      "chan-recv",
	RuleChanClose:     "chan-close",
}

// RuleName returns the short name of a rule number, or "unknown".
func RuleName(rule int) string {
	if rule >= 1 && rule <= NumRules {
		return ruleNames[rule]
	}
	return "unknown"
}
