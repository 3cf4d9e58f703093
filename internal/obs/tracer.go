package obs

import (
	"sync/atomic"
	"time"
)

// Stage names one timed segment of the detection service's ingest
// pipeline. A sampled record is stamped with a span id at the client,
// rides the wire inside its stream record, and each stage it crosses
// observes its latency into the matching histogram — together the
// stages account for where an event's end-to-end latency goes:
//
//	client_encode   serializing the record (client, Send)
//	wire_rtt        a flush/close control round trip (client)
//	queue_wait      enqueue to dequeue in the session ingest queue
//	apply           core.Engine.Step for one action (worker)
//	verdict_flush   flushing a batch's verdicts to the client (worker)
//	checkpoint_capture  copying a periodic checkpoint's state (worker)
//	checkpoint_write  encoding + durable write of it (checkpoint writer)
//	replica_push    mirroring one checkpoint to one ring successor
type Stage uint8

// The pipeline stages, in upstream-to-downstream order.
const (
	StageClientEncode Stage = iota
	StageWireRTT
	StageQueueWait
	StageApply
	StageVerdictFlush
	StageCheckpointCapture
	StageCheckpointWrite
	StageReplicaPush

	// NumStages is the number of pipeline stages.
	NumStages
)

// stageNames index by Stage; used for metric names, so they must stay
// snake_case.
var stageNames = [NumStages]string{
	StageClientEncode:      "client_encode",
	StageWireRTT:           "wire_rtt",
	StageQueueWait:         "queue_wait",
	StageApply:             "apply",
	StageVerdictFlush:      "verdict_flush",
	StageCheckpointCapture: "checkpoint_capture",
	StageCheckpointWrite:   "checkpoint_write",
	StageReplicaPush:       "replica_push",
}

// String returns the stage's snake_case name.
func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// Tracer is the lock-free sampled span model: Sample decides (one
// atomic add, power-of-two modulus) whether a record becomes a span,
// and Observe records a span's per-stage latency in microseconds into
// fixed exponential histograms. Every method is nil-safe, so the
// disabled path — a nil *Tracer threaded through the pipeline — costs
// one nil check per instrumentation site and allocates nothing
// (BenchmarkTracer pins this).
//
// Sampling is deliberately counter-based, not probabilistic: the same
// stream always selects the same records, which keeps drills and the
// ingest benchmark deterministic.
type Tracer struct {
	mask  uint64        // sample every mask+1 records (power of two)
	n     atomic.Uint64 // records seen by Sample
	spans atomic.Uint64 // span ids handed out
	stage [NumStages]Histogram
}

// NewTracer returns a tracer sampling one record in every (every
// rounded up to a power of two). every <= 0 returns nil — the fully
// disabled tracer.
func NewTracer(every int) *Tracer {
	if every <= 0 {
		return nil
	}
	pow := uint64(1)
	for pow < uint64(every) {
		pow <<= 1
	}
	return &Tracer{mask: pow - 1}
}

// SampleEvery returns the effective sampling interval (0 when nil).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.mask) + 1
}

// Sample reports whether the next record should carry a span. One
// atomic add; nil tracers never sample.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.n.Add(1)&t.mask == 0
}

// NextSpan returns a fresh nonzero span id for a sampled record.
func (t *Tracer) NextSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Add(1)
}

// Observe records a span's latency through one stage. Durations are
// observed in whole microseconds (negative clamps to zero).
func (t *Tracer) Observe(st Stage, d time.Duration) {
	if t == nil || st >= NumStages {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	t.stage[st].Observe(uint64(us))
}

// StageHist returns the histogram behind one stage (nil tracer: nil).
func (t *Tracer) StageHist(st Stage) *Histogram {
	if t == nil || st >= NumStages {
		return nil
	}
	return &t.stage[st]
}

// Register binds every stage histogram into reg under
// <prefix>_stage_<stage>_us, e.g. goldilocksd_stage_queue_wait_us.
// The names are label-free on purpose: the cluster rollup sums
// label-free goldilocksd_* families into fleet-wide
// goldilocksd_cluster_* aggregates.
func (t *Tracer) Register(reg *Registry, prefix string) {
	if t == nil || reg == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		reg.RegisterHistogram(prefix+"_stage_"+st.String()+"_us", &t.stage[st])
	}
}
