package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of metrics, exportable as a JSON
// snapshot (for -stats-json and /debug/vars) and as Prometheus text
// format (for /metrics). Metric names follow Prometheus conventions
// (snake_case with a subsystem prefix) and may carry a label suffix in
// curly braces, e.g. `goldilocks_rule_fires_total{rule="2"}` — the
// exporter groups such families under one TYPE line.
//
// Registration is expected at setup time; reads (scrapes) may be
// concurrent with further registration and with the counters being
// incremented.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	cfuncs   map[string]func() uint64
	gauges   map[string]GaugeFunc
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		cfuncs:   make(map[string]func() uint64),
		gauges:   make(map[string]GaugeFunc),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// RegisterCounter binds an existing counter under name. It returns c
// for chaining; re-registering a name replaces the binding.
func (r *Registry) RegisterCounter(name string, c *Counter) *Counter {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
	return c
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// RegisterCounterFunc binds a counter read at scrape time under name,
// for a count its owner keeps in a form of its own (summed over
// stripes, say). It exports exactly like a Counter.
func (r *Registry) RegisterCounterFunc(name string, f func() uint64) {
	r.mu.Lock()
	r.cfuncs[name] = f
	r.mu.Unlock()
}

// RegisterGaugeFunc binds a scrape-time gauge under name.
func (r *Registry) RegisterGaugeFunc(name string, f GaugeFunc) {
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// Unregister removes the binding under name from every metric kind.
// Scrapes already in flight keep the snapshot they copied; later ones
// no longer see the name. Used when per-session metrics outlive their
// session (a migrated-away or dropped daemon session).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.counters, name)
	delete(r.cfuncs, name)
	delete(r.gauges, name)
	delete(r.hists, name)
	delete(r.series, name)
	r.mu.Unlock()
}

// RegisterHistogram binds an existing histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) *Histogram {
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
	return h
}

// RegisterSeries binds a time-series ring buffer under name. Series
// appear in the JSON snapshot only; Prometheus scrapes build their own
// time dimension from the underlying gauges.
func (r *Registry) RegisterSeries(name string, s *Series) *Series {
	r.mu.Lock()
	r.series[name] = s
	r.mu.Unlock()
	return s
}

// snapshotMaps copies the binding maps so exports don't hold the lock
// while formatting.
func (r *Registry) snapshotMaps() (map[string]func() uint64, map[string]GaugeFunc, map[string]*Histogram, map[string]*Series) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs := make(map[string]func() uint64, len(r.counters)+len(r.cfuncs))
	for k, v := range r.counters {
		cs[k] = v.Load
	}
	for k, f := range r.cfuncs {
		cs[k] = f
	}
	gs := make(map[string]GaugeFunc, len(r.gauges))
	for k, v := range r.gauges {
		gs[k] = v
	}
	hs := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hs[k] = v
	}
	ss := make(map[string]*Series, len(r.series))
	for k, v := range r.series {
		ss[k] = v
	}
	return cs, gs, hs, ss
}

// histSnapshot is the JSON shape of a histogram.
type histSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Mean    float64      `json:"mean"`
	Buckets []HistBucket `json:"buckets"`
}

// Snapshot returns the current value of every metric as a JSON-ready
// map: counters and gauges as numbers, histograms as bucket objects,
// series as point lists.
func (r *Registry) Snapshot() map[string]any {
	cs, gs, hs, ss := r.snapshotMaps()
	out := make(map[string]any, len(cs)+len(gs)+len(hs)+len(ss))
	for name, c := range cs {
		out[name] = c()
	}
	for name, g := range gs {
		out[name] = g()
	}
	for name, h := range hs {
		out[name] = histSnapshot{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Buckets: h.Buckets()}
	}
	for name, s := range ss {
		out[name] = s.Points()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Histogram +Inf bucket
// bounds marshal as the string "+Inf" (JSON has no infinity).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sanitizeJSON(snap))
}

// JSONValue returns the snapshot with non-finite floats already
// replaced, safe to embed in a larger document passed to json.Marshal
// (the composite -stats-json output).
func (r *Registry) JSONValue() any {
	return sanitizeJSON(r.Snapshot())
}

// sanitizeJSON replaces non-finite floats (histogram +Inf bounds) with
// strings so encoding/json does not error.
func sanitizeJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = sanitizeJSON(e)
		}
		return out
	case histSnapshot:
		bs := make([]map[string]any, len(x.Buckets))
		for i, b := range x.Buckets {
			le := any(b.UpperBound)
			if math.IsInf(b.UpperBound, 1) {
				le = "+Inf"
			}
			bs[i] = map[string]any{"le": le, "count": b.Count}
		}
		return map[string]any{"count": x.Count, "sum": x.Sum, "mean": x.Mean, "buckets": bs}
	default:
		return v
	}
}

// baseName strips a {label} suffix: `x_total{rule="2"}` → `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), grouping labeled families under one TYPE
// line and rendering histograms with cumulative le buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	cs, gs, hs, _ := r.snapshotMaps()

	typed := make(map[string]string) // base name -> TYPE already emitted
	emitType := func(name, typ string) string {
		base := baseName(name)
		head := ""
		if typed[base] == "" {
			head = fmt.Sprintf("# TYPE %s %s\n", base, typ)
			typed[base] = typ
		}
		return head
	}

	var b strings.Builder
	for _, name := range sortedKeys(cs) {
		b.WriteString(emitType(name, "counter"))
		fmt.Fprintf(&b, "%s %d\n", name, cs[name]())
	}
	for _, name := range sortedKeys(gs) {
		b.WriteString(emitType(name, "gauge"))
		fmt.Fprintf(&b, "%s %v\n", name, gs[name]())
	}
	for _, name := range sortedKeys(hs) {
		h := hs[name]
		base := baseName(name)
		b.WriteString(emitType(name, "histogram"))
		for _, bk := range h.Buckets() {
			le := "+Inf"
			if !math.IsInf(bk.UpperBound, 1) {
				le = fmt.Sprintf("%g", bk.UpperBound)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", base, le, bk.Count)
		}
		fmt.Fprintf(&b, "%s_sum %d\n", base, h.Sum())
		fmt.Fprintf(&b, "%s_count %d\n", base, h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
