package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"goldilocks/internal/event"
)

func TestRuleOf(t *testing.T) {
	cases := []struct {
		kind event.Kind
		rule int
	}{
		{event.KindRelease, RuleRelease},
		{event.KindAcquire, RuleAcquire},
		{event.KindVolatileWrite, RuleVolatileWrite},
		{event.KindVolatileRead, RuleVolatileRead},
		{event.KindFork, RuleFork},
		{event.KindJoin, RuleJoin},
		{event.KindAlloc, RuleAlloc},
		{event.KindCommit, RuleCommit},
		{event.KindRead, 0},
		{event.KindWrite, 0},
	}
	for _, c := range cases {
		if got := RuleOf(c.kind); got != c.rule {
			t.Errorf("RuleOf(%v) = %d, want %d", c.kind, got, c.rule)
		}
	}
	if RuleName(RuleRelease) != "release" || RuleName(0) != "unknown" || RuleName(NumRules+1) != "unknown" {
		t.Errorf("RuleName mapping wrong: %q %q %q", RuleName(RuleRelease), RuleName(0), RuleName(NumRules+1))
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 110 {
		t.Fatalf("Sum = %d, want 110", h.Sum())
	}
	bs := h.Buckets()
	if len(bs) != histBuckets {
		t.Fatalf("len(Buckets) = %d, want %d", len(bs), histBuckets)
	}
	// Cumulative: le=0 holds {0}; le=1 holds {0,1}; le=3 holds {0,1,2,3};
	// le=7 holds {..,4}; the +Inf bucket holds everything.
	wantCum := map[float64]uint64{0: 1, 1: 2, 3: 4, 7: 5}
	for _, b := range bs {
		if want, ok := wantCum[b.UpperBound]; ok && b.Count != want {
			t.Errorf("bucket le=%g count = %d, want %d", b.UpperBound, b.Count, want)
		}
	}
	last := bs[len(bs)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 6 {
		t.Errorf("last bucket = {%v %d}, want {+Inf 6}", last.UpperBound, last.Count)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(bs); i++ {
		if bs[i].Count < bs[i-1].Count {
			t.Fatalf("buckets not cumulative at %d: %d < %d", i, bs[i].Count, bs[i-1].Count)
		}
	}
}

func TestHistogramMeanEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", h.Mean())
	}
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries(3)
	for i := 1; i <= 5; i++ {
		s.Add(float64(i))
	}
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("len(Points) = %d, want 3", len(pts))
	}
	for i, want := range []float64{3, 4, 5} {
		if pts[i].Value != want {
			t.Errorf("Points[%d].Value = %v, want %v", i, pts[i].Value, want)
		}
	}
}

func TestSampler(t *testing.T) {
	s := NewSeries(16)
	n := 0
	smp := NewSampler(time.Hour, func() { n++; s.Add(float64(n)) })
	smp.Stop()
	// The immediate first sample must have landed before Stop returned.
	if got := len(s.Points()); got != 1 {
		t.Fatalf("samples after immediate run = %d, want 1", got)
	}
	var nilSampler *Sampler
	nilSampler.Stop() // must not panic
}

func TestTraceHookRingAndFilter(t *testing.T) {
	h := NewTraceHook(2)
	if h.Enabled() {
		t.Fatal("new hook should be disabled")
	}
	if h.Match("o1.f0") {
		t.Fatal("disabled hook must not match")
	}
	h.Enable("o1.f0")
	if !h.Match("o1.f0") || h.Match("o2.f0") {
		t.Fatal("filter mismatch")
	}
	for i := uint64(1); i <= 3; i++ {
		h.Record(LocksetTransition{Seq: i, Var: "o1.f0", Rule: RuleRelease, Action: "T1:rel(o9)", Lockset: "{T1}"})
	}
	trs, dropped := h.Snapshot()
	if len(trs) != 2 || trs[0].Seq != 2 || trs[1].Seq != 3 {
		t.Fatalf("ring snapshot = %+v", trs)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	h.Disable()
	if h.Enabled() {
		t.Fatal("hook should be disabled after Disable")
	}
	h.Enable() // empty filter matches everything
	if !h.Match("anything") {
		t.Fatal("empty filter should match all variables")
	}
	var nilHook *TraceHook
	if nilHook.Enabled() {
		t.Fatal("nil hook must report disabled")
	}
}

func TestProvenanceRendering(t *testing.T) {
	p := &Provenance{
		Var:    "o10.f0",
		Prev:   "T1:write(o10.f0)",
		Thread: "T2",
		Base:   "{T1}",
		Steps: []ProvStep{
			{Seq: 4, Action: "T1:rel(o20)", Rule: RuleRelease, After: "{T1, o20.lock}"},
			{Seq: 6, Action: "T3:acq(o20)", Rule: RuleAcquire, After: "{T1, T3, o20.lock}"},
			{Seq: 8, Action: "T3:rel(o21)", Rule: RuleRelease, After: "{T1, T3, o20.lock, o21.lock}"},
		},
		Final: "{T1, T3, o20.lock, o21.lock}",
	}
	if got, want := fmt.Sprint(p.Rules()), "[2 3]"; got != want {
		t.Errorf("Rules = %s, want %s", got, want)
	}
	if got, want := p.Path(), "{T1}→{T1, o20.lock}→{T1, T3, o20.lock}→{T1, T3, o20.lock, o21.lock}"; got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
	s := p.String()
	for _, frag := range []string{"prev T1:write(o10.f0)", "via rules 2,3", "no synchronization chain reached T2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	p.Elided = 3
	p.Truncated = true
	s = p.String()
	for _, frag := range []string{"(+3 steps elided)", "(origin collected; path truncated)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestRegistryExports(t *testing.T) {
	reg := NewRegistry()
	fires := [NumRules + 1]uint64{RuleRelease: 2, RuleAcquire: 1}
	for i := 1; i <= NumRules; i++ {
		reg.RegisterCounterFunc(fmt.Sprintf("goldilocks_rule_fires_total{rule=%q}", fmt.Sprint(i)), func() uint64 { return fires[i] })
	}
	var depth Histogram
	depth.Observe(5)
	reg.RegisterHistogram("goldilocks_walk_depth_cells", &depth)
	var contention Counter
	contention.Inc()
	reg.RegisterCounter("goldilocks_shard_contention_total", &contention)
	reg.RegisterGaugeFunc("goldilocks_list_len", func() float64 { return 42 })
	sr := NewSeries(4)
	sr.Add(1)
	reg.RegisterSeries("goldilocks_list_len_series", sr)

	var js strings.Builder
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(js.String()), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, js.String())
	}
	if v, ok := snap[`goldilocks_rule_fires_total{rule="2"}`].(float64); !ok || v != 2 {
		t.Errorf("JSON rule 2 fires = %v", snap[`goldilocks_rule_fires_total{rule="2"}`])
	}
	if v, ok := snap["goldilocks_list_len"].(float64); !ok || v != 42 {
		t.Errorf("JSON gauge = %v", snap["goldilocks_list_len"])
	}
	if _, ok := snap["goldilocks_list_len_series"]; !ok {
		t.Error("JSON missing series")
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := prom.String()
	for _, frag := range []string{
		"# TYPE goldilocks_rule_fires_total counter",
		`goldilocks_rule_fires_total{rule="2"} 2`,
		`goldilocks_rule_fires_total{rule="3"} 1`,
		"# TYPE goldilocks_walk_depth_cells histogram",
		`goldilocks_walk_depth_cells_bucket{le="+Inf"} 1`,
		"goldilocks_walk_depth_cells_sum 5",
		"goldilocks_walk_depth_cells_count 1",
		"goldilocks_shard_contention_total 1",
		"goldilocks_list_len 42",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("Prometheus output missing %q\n%s", frag, text)
		}
	}
	// The family TYPE line must appear exactly once despite twelve members.
	if n := strings.Count(text, "# TYPE goldilocks_rule_fires_total counter"); n != 1 {
		t.Errorf("TYPE line emitted %d times, want 1", n)
	}
}

func TestRegistryCounterGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total")
	c.Add(7)
	if got := reg.Counter("x_total").Load(); got != 7 {
		t.Fatalf("get-or-create returned a fresh counter: %d", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("goldilocks_up").Inc()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "goldilocks_up 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "goldilocks_up") {
		t.Errorf("/debug/vars = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (len %d)", code, len(body))
	}

	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}
