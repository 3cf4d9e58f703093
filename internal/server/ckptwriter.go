package server

import "sync"

// ckptWriter is a server's one checkpoint writer goroutine. A session
// worker captures a periodic checkpoint (a copy of the session's
// detector state, the only step that needs the engine quiescent) and
// submits it; the writer encodes, persists and replicates it off the
// verdict path. The writer keeps only the newest pending capture per
// session: an older one would be overwritten on disk before anything
// could restore from it, and is released when replaced.
type ckptWriter struct {
	// write is Server.writePeriodic. It encodes into buf, the writer's
	// scratch buffer, and returns the storage to keep for the next
	// write; only the writer goroutine touches buf.
	write func(snap *sessionSnapshot, buf []byte) []byte
	buf   []byte

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on submit, on each finished write, on stop
	pending map[*session]*sessionSnapshot
	order   []*session // sessions with a pending capture, oldest submission first
	active  *session   // session whose capture is being written, or nil
	stopped bool       // no further submissions; the loop exits once order is empty
	killed  chan struct{}
	done    chan struct{}

	// hold, when non-nil, parks the writer after it takes a capture and
	// before it encodes it: a test seam for the window between capture
	// and durable write. A kill abandons the held capture.
	hold chan struct{}
}

func newCkptWriter(write func(*sessionSnapshot, []byte) []byte) *ckptWriter {
	w := &ckptWriter{
		write:   write,
		pending: make(map[*session]*sessionSnapshot),
		killed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *ckptWriter) run() {
	defer close(w.done)
	w.mu.Lock()
	for {
		for len(w.order) == 0 && !w.stopped {
			w.cond.Wait()
		}
		if len(w.order) == 0 {
			w.mu.Unlock()
			return
		}
		sess := w.order[0]
		w.order = w.order[1:]
		snap := w.pending[sess]
		delete(w.pending, sess)
		w.active = sess
		hold := w.hold
		w.mu.Unlock()

		write := true
		if hold != nil {
			select {
			case <-hold:
			case <-w.killed:
				write = false
			}
		}
		if write {
			w.buf = w.write(snap, w.buf)
		} else {
			snap.release()
		}

		w.mu.Lock()
		w.active = nil
		w.cond.Broadcast()
	}
}

// submit hands a capture to the writer, replacing (and releasing) any
// capture of the same session still waiting. After stop it is dropped:
// only session workers submit, and they have all exited by then.
func (w *ckptWriter) submit(snap *sessionSnapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		snap.release()
		return
	}
	if old, ok := w.pending[snap.sess]; ok {
		old.release()
	} else {
		w.order = append(w.order, snap.sess)
	}
	w.pending[snap.sess] = snap
	w.cond.Broadcast()
}

// wait returns once sess has no capture pending or being written.
func (w *ckptWriter) wait(sess *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.pending[sess] != nil || w.active == sess {
		w.cond.Wait()
	}
}

// discard drops sess's pending capture and waits out one being written.
func (w *ckptWriter) discard(sess *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if snap := w.pending[sess]; snap != nil {
		snap.release()
		delete(w.pending, sess)
		for i, s := range w.order {
			if s == sess {
				w.order = append(w.order[:i], w.order[i+1:]...)
				break
			}
		}
	}
	for w.active == sess {
		w.cond.Wait()
	}
}

// flush returns once every capture submitted so far has been written.
func (w *ckptWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.order) > 0 || w.active != nil {
		w.cond.Wait()
	}
}

// close writes every pending capture, then stops the writer and waits
// for it to exit.
func (w *ckptWriter) close() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}

// kill stops the writer the way a crash would: pending captures are
// discarded and a held one is abandoned. It waits for the writer to
// exit, so a write already under way finishes first.
func (w *ckptWriter) kill() {
	w.mu.Lock()
	w.stopped = true
	for _, snap := range w.pending {
		snap.release()
	}
	clear(w.pending)
	w.order = nil
	close(w.killed)
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}
