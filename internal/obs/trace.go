package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// LocksetTransition is one structured trace record: a lockset update
// observed for a traced variable, either at an access (rule 1/9 reset)
// or during a lazy-evaluation walk (rules 2–7, 9 growing the set).
type LocksetTransition struct {
	// Seq is the position in the extended synchronization order of the
	// action that caused the transition.
	Seq uint64 `json:"seq"`
	// Var is the variable whose lockset changed, e.g. "o10.f0".
	Var string `json:"var"`
	// Rule is the lockset update rule that fired (1..NumRules).
	Rule int `json:"rule"`
	// Action renders the causing action, e.g. "T1:rel(o20)".
	Action string `json:"action"`
	// Lockset renders the lockset after the transition.
	Lockset string `json:"lockset"`
}

func (t LocksetTransition) String() string {
	return fmt.Sprintf("seq=%d %s rule %d (%s) via %s -> %s",
		t.Seq, t.Var, t.Rule, RuleName(t.Rule), t.Action, t.Lockset)
}

// TraceHook is the optional structured trace of lockset transitions:
// a fixed-capacity ring buffer fed by the engine for a filtered set of
// variables. It ships disabled, with no ring allocated; the only cost
// on the access path while disabled is one atomic bool load.
type TraceHook struct {
	enabled atomic.Bool

	mu       sync.Mutex
	filter   map[string]bool // variable names; empty means every variable
	capacity int
	buf      []LocksetTransition // allocated by the first Enable
	next     int
	wrapped  bool
	dropped  uint64 // transitions overwritten after wrap
}

// NewTraceHook returns a hook with the given ring capacity (minimum 1),
// disabled until Enable is called.
func NewTraceHook(capacity int) *TraceHook {
	return &TraceHook{capacity: max(capacity, 1)}
}

// Enable turns the hook on for the named variables (e.g. "o10.f0");
// with no names every variable is traced. Safe to call while the
// engine is running.
func (h *TraceHook) Enable(vars ...string) {
	h.mu.Lock()
	if h.buf == nil {
		h.buf = make([]LocksetTransition, h.capacity)
	}
	h.filter = make(map[string]bool, len(vars))
	for _, v := range vars {
		h.filter[v] = true
	}
	h.mu.Unlock()
	h.enabled.Store(true)
}

// Disable turns the hook off; the buffered transitions remain readable.
func (h *TraceHook) Disable() { h.enabled.Store(false) }

// Enabled reports whether the hook is recording. A nil hook is
// disabled.
func (h *TraceHook) Enabled() bool { return h != nil && h.enabled.Load() }

// Match reports whether transitions of the named variable are traced.
func (h *TraceHook) Match(varName string) bool {
	if !h.Enabled() {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.filter) == 0 || h.filter[varName]
}

// Record appends one transition, overwriting the oldest past capacity.
func (h *TraceHook) Record(t LocksetTransition) {
	h.mu.Lock()
	if h.wrapped {
		h.dropped++
	}
	h.buf[h.next] = t
	h.next++
	if h.next == len(h.buf) {
		h.next = 0
		h.wrapped = true
	}
	h.mu.Unlock()
}

// Snapshot returns the retained transitions oldest-first and the count
// of older transitions that were overwritten.
func (h *TraceHook) Snapshot() (transitions []LocksetTransition, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.wrapped {
		out := make([]LocksetTransition, h.next)
		copy(out, h.buf[:h.next])
		return out, h.dropped
	}
	out := make([]LocksetTransition, 0, len(h.buf))
	out = append(out, h.buf[h.next:]...)
	out = append(out, h.buf[:h.next]...)
	return out, h.dropped
}
