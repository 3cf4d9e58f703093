package main

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
)

// noopDetector receives every runtime hook and does nothing, so a run
// with it costs exactly the runtime's hook plumbing over a run with no
// detector.
type noopDetector struct{}

func (noopDetector) Sync(event.Action)                                                  {}
func (noopDetector) Read(event.Tid, event.Addr, event.FieldID) *detect.Race             { return nil }
func (noopDetector) Write(event.Tid, event.Addr, event.FieldID) *detect.Race            { return nil }
func (noopDetector) Commit(event.Tid, []event.Variable, []event.Variable) []detect.Race { return nil }
func (noopDetector) Alloc(event.Tid, event.Addr)                                        {}

// The detector entry points the timing wrapper tells apart.
const (
	callRead = iota
	callWrite
	callSync
	callCommit
	callAlloc
	numCalls
)

var callNames = [numCalls]string{"read", "write", "sync", "commit", "alloc"}

// timingDetector times every call into an inner detector. Its sums are
// not busy time: with more threads than processors, a call's clock keeps
// running while its goroutine is descheduled, so only the percentiles
// are reported.
type timingDetector struct {
	inner jrt.Detector
	lat   [numCalls]latencyHist
}

func (d *timingDetector) Sync(a event.Action) {
	start := time.Now()
	d.inner.Sync(a)
	d.lat[callSync].observe(time.Since(start))
}

func (d *timingDetector) Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	start := time.Now()
	r := d.inner.Read(t, o, f)
	d.lat[callRead].observe(time.Since(start))
	return r
}

func (d *timingDetector) Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	start := time.Now()
	r := d.inner.Write(t, o, f)
	d.lat[callWrite].observe(time.Since(start))
	return r
}

func (d *timingDetector) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	start := time.Now()
	rs := d.inner.Commit(t, reads, writes)
	d.lat[callCommit].observe(time.Since(start))
	return rs
}

func (d *timingDetector) Alloc(t event.Tid, o event.Addr) {
	start := time.Now()
	d.inner.Alloc(t, o)
	d.lat[callAlloc].observe(time.Since(start))
}

// subBits sets the histogram resolution: 2^subBits buckets per power of
// two, so a reported percentile is within 1/2^subBits of the true value.
const subBits = 3

// latencyHist is a lock-free log-linear histogram of nanosecond
// latencies, fine enough for per-call percentiles.
type latencyHist struct {
	counts [64 << subBits]atomic.Uint64
	n      atomic.Uint64
}

func histBucket(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	sub := (v >> (e - subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits | int(sub)
}

// histLower returns the smallest value that lands in bucket b.
func histLower(b int) uint64 {
	if b < 1<<subBits {
		return uint64(b)
	}
	e := b>>subBits + subBits - 1
	sub := uint64(b & (1<<subBits - 1))
	return 1<<e | sub<<(e-subBits)
}

func (h *latencyHist) observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histBucket(v)].Add(1)
	h.n.Add(1)
}

func (h *latencyHist) count() uint64 { return h.n.Load() }

// quantile returns the lower bound of the bucket holding the q-quantile
// (0 with no observations).
func (h *latencyHist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	cum := uint64(0)
	for b := range h.counts {
		cum += h.counts[b].Load()
		if cum > rank {
			return float64(histLower(b))
		}
	}
	return float64(histLower(len(h.counts) - 1))
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident memory in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the Go runtime's allocation and collection work over a
// measured section.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (m *memDelta) add(o memDelta) {
	m.allocBytes += o.allocBytes
	m.gcCycles += o.gcCycles
	m.gcPause += o.gcPause
}

// memProbe snapshots the counters memDelta is computed from. Reading
// them stops the world briefly, so only traced runs take snapshots.
type memProbe runtime.MemStats

func readMem() *memProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (*memProbe)(&ms)
}

func (p *memProbe) since(before *memProbe) memDelta {
	return memDelta{
		allocBytes: p.TotalAlloc - before.TotalAlloc,
		gcCycles:   p.NumGC - before.NumGC,
		gcPause:    time.Duration(p.PauseTotalNs - before.PauseTotalNs),
	}
}
