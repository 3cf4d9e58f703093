package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file is the node side of cluster operation: follower replicas,
// replica promotion, session adoption (migration), draining, and the
// crash-shaped Kill used by chaos drills. The coordinator lives in
// internal/cluster; it drives these through the admin protocol.

// sessionInfos snapshots every session's progress.
func (s *Server) sessionInfos() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{
			ID: sess.id, Applied: sess.applied.Load(), Races: sess.races.Load(),
			Attached: sess.attached,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Draining reports whether the node has been told to shed its sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// replicaPath is where a follower replica of a session checkpoint
// lives.
func (s *Server) replicaPath(id string) string {
	return filepath.Join(s.cfg.ReplicaDir, id+".ckpt")
}

// PutReplica durably stores checkpoint bytes as a follower replica of
// session id. The bytes are validated before they are trusted: a torn
// or corrupt replica is worthless at promotion time, so it is rejected
// now, while the owner can still retry.
func (s *Server) PutReplica(id string, data []byte) error {
	if s.cfg.ReplicaDir == "" {
		return errors.New("no replica directory configured")
	}
	sess, err := loadSession(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return fmt.Errorf("rejecting replica: %w", err)
	}
	if sess.id != id {
		return fmt.Errorf("rejecting replica: checkpoint is for session %q, not %q", sess.id, id)
	}
	if err := s.writeDurable(s.cfg.ReplicaDir, id+".ckpt", data); err != nil {
		return err
	}
	s.replicasHeld.Inc()
	return nil
}

// promoteReplicaLocked turns a follower replica into a live session:
// the node now owns a session it never served (the previous owner
// died), and the replica's applied prefix is where the client resumes.
// Returns nil when there is no replica or it cannot be loaded (the bad
// file is quarantined and the session starts fresh — the client then
// re-streams its full linearization, which converges to the same
// verdicts). Caller holds s.mu.
func (s *Server) promoteReplicaLocked(id string) *session {
	if s.cfg.ReplicaDir == "" {
		return nil
	}
	path := s.replicaPath(id)
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	sess, err := loadSessionFile(path)
	if err != nil {
		// Quarantine without s.mu: quarantineCheckpoint locks it.
		s.mu.Unlock()
		s.quarantineCheckpoint(path, id, err)
		s.mu.Lock()
		return nil
	}
	sess.durable.Store(sess.applied.Load()) // the replica file is on disk here
	s.sessions[id] = sess
	s.registerSessionMetrics(sess)
	s.promotions.Inc()
	s.cfg.Logger.Info("session promoted from replica", "component", "server", "session", id,
		"applied", sess.applied.Load(), "races", sess.races.Load())
	s.flight("promote", id, fmt.Sprintf("from replica at %d applied, %d races", sess.applied.Load(), sess.races.Load()))
	return sess
}

// CheckpointSessionBytes serializes a consistent checkpoint of the
// named session. A live session is captured by its worker between
// batches (zero verdicts lost); a detached one is claimed for the
// capture so no client can attach mid-snapshot. Either way the
// checkpoint writer encodes the capture, behind the session's earlier
// ones.
func (s *Server) CheckpointSessionBytes(id string) (data []byte, applied uint64, err error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("unknown session %q", id)
	}
	if sess.attached {
		s.mu.Unlock()
		reply := make(chan ckptResult, 1)
		if sess.tryEnqueue(item{ctl: ctlCkpt, ckpt: reply}) {
			res := <-reply
			return res.data, res.applied, res.err
		}
		// The connection detached between the check and the enqueue;
		// fall through to the detached path.
		s.mu.Lock()
		if sess.attached {
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("session %q is mid-attach", id)
		}
	}
	// Claim the detached session so no client attaches mid-capture.
	sess.attached = true
	s.mu.Unlock()
	done := make(chan ckptResult, 1)
	s.submitCapture(sess, ckptPull, done)
	s.mu.Lock()
	sess.attached = false
	s.mu.Unlock()
	res := <-done
	return res.data, res.applied, res.err
}

// AdoptSession installs a session from serialized checkpoint bytes —
// the receiving half of a migration. An attached live session is never
// replaced, and neither is local state that is further along than the
// incoming snapshot.
func (s *Server) AdoptSession(data []byte) (applied uint64, err error) {
	sess, err := loadSession(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return 0, errors.New("server shutting down")
	}
	old, replacing := s.sessions[sess.id]
	if replacing {
		if old.attached {
			s.mu.Unlock()
			return 0, fmt.Errorf("session %q has a live connection here", sess.id)
		}
		if old.applied.Load() > sess.applied.Load() {
			s.mu.Unlock()
			return 0, fmt.Errorf("session %q: local state at %d applied is ahead of incoming %d",
				sess.id, old.applied.Load(), sess.applied.Load())
		}
	}
	s.sessions[sess.id] = sess
	s.registerSessionMetrics(sess)
	s.mu.Unlock()
	if replacing {
		// A periodic checkpoint of the replaced session must not land
		// on disk after the adopted one.
		s.ckpt.discard(old)
	}
	s.adoptions.Inc()
	if s.cfg.CheckpointDir != "" {
		if err := s.persistCheckpoint(sess.id, data); err != nil {
			s.cfg.Logger.Warn("persisting adopted checkpoint failed", "component", "server",
				"session", sess.id, "err", err)
		} else {
			sess.durable.Store(sess.applied.Load())
		}
	}
	s.cfg.Logger.Info("session adopted", "component", "server", "session", sess.id,
		"applied", sess.applied.Load(), "races", sess.races.Load())
	s.flight("adopt", sess.id, fmt.Sprintf("%d applied, %d races", sess.applied.Load(), sess.races.Load()))
	return sess.applied.Load(), nil
}

// DropSession removes a detached session and its local checkpoint and
// replica files — the final step of migrating it elsewhere. A periodic
// checkpoint of the session still waiting for the writer is discarded,
// and one being written is waited out, so no file reappears after the
// drop.
func (s *Server) DropSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("unknown session %q", id)
	}
	if sess.attached {
		s.mu.Unlock()
		return fmt.Errorf("session %q has a live connection", id)
	}
	delete(s.sessions, id)
	s.mu.Unlock()
	s.ckpt.discard(sess)
	s.unregisterSessionMetrics(id)
	if s.cfg.CheckpointDir != "" {
		os.Remove(filepath.Join(s.cfg.CheckpointDir, id+".ckpt"))
	}
	if s.cfg.ReplicaDir != "" {
		os.Remove(s.replicaPath(id))
	}
	s.cfg.Logger.Info("session dropped", "component", "server", "session", id)
	s.flight("drop", id, "")
	return nil
}

// Drain sheds this node's ownership: it starts redirecting attaches
// (via OnDrain, the cluster node marks itself draining), severs live
// session connections, waits for their workers to settle, and
// checkpoints and replicates every session through the checkpoint
// writer, behind the periodic captures still waiting there, so no
// stale periodic checkpoint lands after Drain's own. The returned list
// is what the coordinator migrates to the remaining nodes.
func (s *Server) Drain() ([]SessionInfo, error) {
	s.draining.Store(true)
	if s.cfg.OnDrain != nil {
		s.cfg.OnDrain()
	}
	// Sever the live session connections (admin connections and the
	// listener stay up: the node still answers redirects and pulls).
	s.mu.Lock()
	for _, sess := range s.sessions {
		if sess.attached && sess.conn != nil {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()
	// Wait for the severed workers to drain and detach.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		busy := 0
		for _, sess := range s.sessions {
			if sess.attached {
				busy++
			}
		}
		s.mu.Unlock()
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("drain: %d sessions still attached after 10s", busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
	results := s.checkpointAll(ckptPeriodic)
	var errs []error
	for _, res := range results {
		if res.err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", res.id, res.err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	s.cfg.Logger.Info("drained", "component", "server", "sessions", len(results))
	s.flight("drain", "", fmt.Sprintf("%d sessions checkpointed", len(results)))
	return s.sessionInfos(), nil
}

// Kill tears the server down the way a crash would: listener and
// connections severed, workers stopped, periodic checkpoints not yet
// written discarded, nothing else checkpointed. Chaos tests use it to
// simulate a node death in-process; the on-disk state is whatever the
// periodic checkpoints last persisted.
func (s *Server) Kill() {
	if s.shutdownConns() {
		s.ckpt.kill()
	}
}

// shutdownConns stops accepting, severs every connection, and waits
// for all handlers and workers to drain. It reports whether this call
// performed the shutdown (false: already down).
func (s *Server) shutdownConns() bool {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return false
	}
	s.closing = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait() // all handlers and workers drained: sessions quiescent
	return true
}
