package jrt

import (
	"sync"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// Recorder is the Serialize adapter: it puts a single-threaded
// detect.Detector behind one mutex so it can serve as a runtime
// Detector. With recording switched on (Record) it also keeps the
// linearization of actions the detector observes, in the order it
// observes them. The recorded trace can be replayed through any offline
// detector or the happens-before oracle — the bridge between live
// monitored executions and trace-level analysis (and the repository's
// strongest end-to-end check: a live run's races must equal the
// oracle's verdict on its own recording).
//
// The mutex gives the actions a total order whatever the scheduler, and
// a race's Pos is the index of its action in that order: on a recording,
// the index at which an offline replay reports the race.
//
// Recording puts even *core.Engine behind the mutex, so the recorded
// order is exactly the linearization the detector observed (recording
// trades detector concurrency for fidelity, which is the right trade for
// a debugging/replay facility).
type Recorder struct {
	mu      sync.Mutex
	d       detect.Detector // nil: record without detecting
	record  bool
	actions []event.Action
	steps   int // actions stepped so far: the next action's index
}

// Record wraps det with serialization and recording. Pass the result as
// Config.Detector. A nil det records without detecting.
func Record(det detect.Detector) *Recorder { return &Recorder{d: det, record: true} }

// Trace returns the recorded linearization so far.
func (r *Recorder) Trace() *event.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	actions := make([]event.Action, len(r.actions))
	copy(actions, r.actions)
	return event.NewTrace(actions)
}

func (r *Recorder) step(a event.Action) (races []detect.Race) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.d != nil {
		races = r.d.Step(a)
		for i := range races {
			races[i].Pos = r.steps
		}
	}
	r.steps++
	if r.record {
		r.actions = append(r.actions, a)
	}
	return races
}
