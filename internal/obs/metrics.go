package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready for use; a Counter must not be copied after first use. A nil
// Counter counts nothing and reads 0, so code that holds one only when
// a registry exists needs no gating.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// GaugeFunc is a gauge evaluated at scrape time: /metrics and the JSON
// snapshot call it, so the exported value is always current without the
// instrumented code pushing updates.
type GaugeFunc func() float64

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with upper bound 2^i - 1 (bucket 0: v == 0,
// bucket 1: v ≤ 1, bucket 2: v ≤ 3, ...); the last bucket is +Inf.
const histBuckets = 22

// Histogram is a fixed-layout exponential histogram for small
// non-negative integer observations (walk depths, segment lengths).
// Observe is a pair of atomic adds — cheap enough for the pair-check
// path. The zero value is ready for use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
}

// bucketFor returns the bucket index for observation v.
func bucketFor(v uint64) int {
	i := 0
	for v > 0 && i < histBuckets-1 {
		v >>= 1
		i++
	}
	return i
}

// Observe records one observation of v.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketFor(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// HistBucket is one exported histogram bucket: the cumulative count of
// observations at most UpperBound.
type HistBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Buckets returns the cumulative bucket counts, Prometheus-style (each
// bucket includes all smaller ones; the last has UpperBound +Inf).
func (h *Histogram) Buckets() []HistBucket {
	out := make([]HistBucket, 0, histBuckets)
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < histBuckets-1 {
			ub = float64(uint64(1)<<i) - 1 // 0, 1, 3, 7, ...
		}
		out = append(out, HistBucket{UpperBound: ub, Count: cum})
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations by
// linear interpolation inside the exponential bucket containing the
// target rank. The estimate is exact for bucket boundaries and within
// one bucket's width otherwise — good enough for p50/p99 stage-latency
// reporting, where the buckets are microsecond powers of two. With no
// observations it returns 0; ranks landing in the +Inf bucket return
// that bucket's lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	cum := float64(0)
	for i := 0; i < histBuckets; i++ {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == 0 {
				return 0 // bucket 0 holds only v == 0
			}
			lo := float64(uint64(1)<<(i-1)) - 1
			hi := float64(uint64(1)<<i) - 1
			if i == histBuckets-1 {
				return lo // +Inf bucket: no finite upper bound to interpolate to
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return 0
}

// SeriesPoint is one sample of a time series.
type SeriesPoint struct {
	UnixMilli int64   `json:"t"`
	Value     float64 `json:"v"`
}

// Series is a fixed-capacity ring buffer of timestamped samples, for
// gauges whose trajectory matters (event-list length, GC-reclaimed
// cells). It is sampled by a Sampler, not by the instrumented code.
type Series struct {
	mu      sync.Mutex
	buf     []SeriesPoint
	next    int
	wrapped bool
}

// NewSeries returns a ring buffer holding the last capacity samples.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{buf: make([]SeriesPoint, capacity)}
}

// Add records a sample at the current time.
func (s *Series) Add(v float64) {
	s.mu.Lock()
	s.buf[s.next] = SeriesPoint{UnixMilli: time.Now().UnixMilli(), Value: v}
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.wrapped = true
	}
	s.mu.Unlock()
}

// Points returns the retained samples, oldest first.
func (s *Series) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wrapped {
		out := make([]SeriesPoint, s.next)
		copy(out, s.buf[:s.next])
		return out
	}
	out := make([]SeriesPoint, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Sampler periodically invokes a sampling function (typically one that
// reads gauges and appends to Series ring buffers) until stopped.
type Sampler struct {
	stop chan struct{}
	done chan struct{}
}

// NewSampler starts a goroutine calling fn every interval. fn runs once
// immediately so short-lived processes still record at least one sample.
func NewSampler(interval time.Duration, fn func()) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	s := &Sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		fn()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for the final sample to finish. It
// is safe to call once; a nil Sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}
