package regiontrack

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
)

// Checker checkpoint/restore: the embedded race engine snapshots
// through core.Engine.Checkpoint (so the race side round-trips with
// the same guarantees TestCheckpointEveryPrefix pins), and the region
// graph — including regions still open mid-flight at the cut — is
// one record after it (event/record.go). A restored checker
// stepped over a trace suffix yields the same races, the same regions,
// the same edges, and the same verdict as an uninterrupted run.
//
//	{"format":"goldilocks-regiontrack","version":1}
//	{"format":"goldilocks-checkpoint","version":1}   \  engine
//	{"engine":{...},"crc":"..."}                     /  snapshot
//	{"graph":{...},"crc":"..."}

// CheckpointFormatName identifies the checker snapshot format.
const CheckpointFormatName = "goldilocks-regiontrack"

// CheckpointFormatVersion is the current snapshot version.
const CheckpointFormatVersion = 1

type ckptThreadRegion struct {
	Thread event.Tid `json:"t"`
	Region regionID  `json:"r"`
}

type ckptThreadInt struct {
	Thread event.Tid `json:"t"`
	N      int       `json:"n"`
}

type ckptThreadRegions struct {
	Thread  event.Tid  `json:"t"`
	Regions []regionID `json:"rs"`
}

type ckptVarRegion struct {
	Obj    event.Addr    `json:"o"`
	Field  event.FieldID `json:"f"`
	Region regionID      `json:"r"`
}

type ckptVarRegions struct {
	Obj     event.Addr    `json:"o"`
	Field   event.FieldID `json:"f"`
	Regions []regionID    `json:"rs"`
}

type ckptSyncRegion struct {
	Key    syncKey  `json:"k"`
	Region regionID `json:"r"`
}

// ckptGraph is the graph record. MaxViolations records the witness cap,
// maxViolations; restore ignores it.
type ckptGraph struct {
	LockRegions   bool                `json:"lock_regions,omitempty"`
	MaxViolations int                 `json:"max_violations,omitempty"`
	Pos           int                 `json:"pos"`
	NextID        regionID            `json:"next_id"`
	Regions       []region            `json:"regions,omitempty"`
	Cur           []ckptThreadRegion  `json:"cur,omitempty"`
	LockSpan      []event.Tid         `json:"lock_span,omitempty"`
	LockDepth     []ckptThreadInt     `json:"lock_depth,omitempty"`
	Prev          []ckptThreadRegion  `json:"prev,omitempty"`
	Pending       []ckptThreadRegions `json:"pending,omitempty"`
	LastWrite     []ckptVarRegion     `json:"last_write,omitempty"`
	Readers       []ckptVarRegions    `json:"readers,omitempty"`
	SyncLast      []ckptSyncRegion    `json:"sync_last,omitempty"`
	Edges         [][2]regionID       `json:"edges,omitempty"`
	Violations    []Violation         `json:"violations,omitempty"`
	ViolationsAll int                 `json:"violations_all,omitempty"`
}

// Records is a checker's complete state copied at a quiescent point:
// the engine's records and the flattened region graph. Like
// core.Records it shares no mutable memory with the checker, so it can
// be encoded on another goroutine while the checker keeps stepping.
type Records struct {
	eng   *core.Records
	graph ckptGraph
}

// CaptureRecords copies the complete checker state, the worker step of
// a checkpoint. The caller must ensure no concurrent Step.
func (c *Checker) CaptureRecords() *Records {
	return &Records{eng: c.eng.CaptureRecords(), graph: c.graphSnapshot()}
}

// Checkpoint serializes the complete checker state to w, both steps
// back to back. The caller must ensure no concurrent Step.
func (c *Checker) Checkpoint(w io.Writer) error {
	b, _, err := c.CaptureRecords().AppendTo(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendTo appends the checker checkpoint to dst, the writer step: the
// header line, the engine checkpoint, then the graph record. The
// records are consumed; out and spare are as for core.Records.AppendTo.
func (r *Records) AppendTo(dst []byte) (out, spare []byte, err error) {
	out, spare, err = r.eng.AppendTo(event.AppendHeader(dst, CheckpointFormatName, CheckpointFormatVersion))
	if err != nil {
		return dst, spare, err
	}
	raw, err := json.Marshal(&r.graph)
	if err != nil {
		return dst, spare, err
	}
	return event.AppendRecord(out, "graph", raw), spare, nil
}

// graphSnapshot flattens the map-shaped graph state into the sorted,
// slice-shaped checkpoint document.
func (c *Checker) graphSnapshot() ckptGraph {
	g := ckptGraph{
		LockRegions:   c.opts.LockRegions,
		MaxViolations: maxViolations,
		Pos:           c.pos,
		NextID:        c.nextID,
		Violations:    c.Violations(),
		ViolationsAll: c.violationsAll,
	}
	for _, id := range c.sortedRegionIDs() {
		g.Regions = append(g.Regions, *c.regions[id])
	}
	g.Cur = threadRegionSlice(c.cur)
	for t, on := range c.lockSpan {
		if on {
			g.LockSpan = append(g.LockSpan, t)
		}
	}
	sort.Slice(g.LockSpan, func(i, j int) bool { return g.LockSpan[i] < g.LockSpan[j] })
	for t, d := range c.lockDepth {
		if d != 0 {
			g.LockDepth = append(g.LockDepth, ckptThreadInt{Thread: t, N: d})
		}
	}
	sort.Slice(g.LockDepth, func(i, j int) bool { return g.LockDepth[i].Thread < g.LockDepth[j].Thread })
	g.Prev = threadRegionSlice(c.prev)
	for t, rs := range c.pending {
		g.Pending = append(g.Pending, ckptThreadRegions{Thread: t, Regions: append([]regionID(nil), rs...)})
	}
	sort.Slice(g.Pending, func(i, j int) bool { return g.Pending[i].Thread < g.Pending[j].Thread })
	for v, r := range c.lastWrite {
		g.LastWrite = append(g.LastWrite, ckptVarRegion{Obj: v.Obj, Field: v.Field, Region: r})
	}
	sortVarRegions(g.LastWrite)
	for v, rs := range c.readers {
		if len(rs) == 0 {
			continue
		}
		e := ckptVarRegions{Obj: v.Obj, Field: v.Field, Regions: sortedSet(rs)}
		g.Readers = append(g.Readers, e)
	}
	sort.Slice(g.Readers, func(i, j int) bool {
		if g.Readers[i].Obj != g.Readers[j].Obj {
			return g.Readers[i].Obj < g.Readers[j].Obj
		}
		return g.Readers[i].Field < g.Readers[j].Field
	})
	for k, r := range c.syncLast {
		g.SyncLast = append(g.SyncLast, ckptSyncRegion{Key: k, Region: r})
	}
	sort.Slice(g.SyncLast, func(i, j int) bool {
		a, b := g.SyncLast[i].Key, g.SyncLast[j].Key
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return !a.Chan && b.Chan
	})
	for u, outs := range c.edges {
		for v := range outs {
			g.Edges = append(g.Edges, [2]regionID{u, v})
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i][0] != g.Edges[j][0] {
			return g.Edges[i][0] < g.Edges[j][0]
		}
		return g.Edges[i][1] < g.Edges[j][1]
	})
	return g
}

func threadRegionSlice(m map[event.Tid]regionID) []ckptThreadRegion {
	var out []ckptThreadRegion
	for t, r := range m {
		if r != 0 {
			out = append(out, ckptThreadRegion{Thread: t, Region: r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}

func sortVarRegions(s []ckptVarRegion) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Obj != s[j].Obj {
			return s[i].Obj < s[j].Obj
		}
		return s[i].Field < s[j].Field
	})
}

// Restore rebuilds a checker from a snapshot written by Checkpoint.
// Like a restored engine, the checker's engine has no fault injector.
func Restore(r io.Reader) (*Checker, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	line, err := event.ReadLine(br)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: reading snapshot header: %w", err)
	}
	if err := event.CheckHeader(line, CheckpointFormatName, CheckpointFormatVersion, CheckpointFormatVersion); err != nil {
		return nil, fmt.Errorf("regiontrack: %w", err)
	}
	eng, err := core.RestoreEngine(br)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: restoring race engine: %w", err)
	}
	line, err = event.ReadLine(br)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: reading graph body: %w", err)
	}
	body, err := event.ReadRecord(line, "graph")
	if err != nil {
		return nil, fmt.Errorf("regiontrack: graph: %w", err)
	}
	var g ckptGraph
	if err := json.Unmarshal(body, &g); err != nil {
		return nil, fmt.Errorf("regiontrack: decoding graph: %w", err)
	}

	// The restored engine carries its own options; the throwaway engine
	// New builds from the zero Options is discarded on the next line.
	c := New(Options{LockRegions: g.LockRegions})
	c.eng = eng
	c.pos = g.Pos
	c.nextID = g.NextID
	for i := range g.Regions {
		reg := g.Regions[i]
		c.regions[reg.ID] = &reg
	}
	for _, e := range g.Cur {
		c.cur[e.Thread] = e.Region
	}
	for _, t := range g.LockSpan {
		c.lockSpan[t] = true
	}
	for _, e := range g.LockDepth {
		c.lockDepth[e.Thread] = e.N
	}
	for _, e := range g.Prev {
		c.prev[e.Thread] = e.Region
	}
	for _, e := range g.Pending {
		c.pending[e.Thread] = append([]regionID(nil), e.Regions...)
	}
	for _, e := range g.LastWrite {
		c.lastWrite[event.Variable{Obj: e.Obj, Field: e.Field}] = e.Region
	}
	for _, e := range g.Readers {
		set := make(map[regionID]struct{}, len(e.Regions))
		for _, id := range e.Regions {
			set[id] = struct{}{}
		}
		c.readers[event.Variable{Obj: e.Obj, Field: e.Field}] = set
	}
	for _, e := range g.SyncLast {
		c.syncLast[e.Key] = e.Region
	}
	for _, e := range g.Edges {
		m := c.edges[e[0]]
		if m == nil {
			m = make(map[regionID]struct{})
			c.edges[e[0]] = m
		}
		m[e[1]] = struct{}{}
	}
	c.violations = g.Violations
	c.violationsAll = g.ViolationsAll
	return c, nil
}
