package cluster

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"goldilocks/internal/obs"
	"goldilocks/internal/server"
)

// NodeConfig configures one cluster member's routing and replication.
type NodeConfig struct {
	// Self is this node's advertised address, as it appears in Members.
	Self string
	// Members is the full static member list (including Self).
	Members []string
	// Replicas is K: how many ring successors receive each checkpoint.
	// 0 disables replication (a death then loses detached progress, but
	// clients still converge by re-streaming from zero). Capped by the
	// fleet size minus one.
	Replicas int
	// Vnodes per physical node on the ring; 0 means DefaultVnodes.
	Vnodes int
	// Probe tunes the failure detector.
	Probe ProbeConfig
	// Logger, when set, receives replication and routing diagnostics.
	// Nil means discard.
	Logger *slog.Logger
	// Tracer, when set, observes each successful replica push's latency
	// into the replica_push stage histogram. Nil disables.
	Tracer *obs.Tracer
}

// Node is the cluster personality of one goldilocksd process: a
// server.Router that consistent-hashes sessions over the live members,
// plus an asynchronous replicator that mirrors every checkpoint to the
// session's ring successors. Wire it into server.Config as Router,
// OnCheckpoint and OnDrain.
type Node struct {
	cfg      NodeConfig
	det      *Detector
	draining atomic.Bool
	repl     chan replJob
	stop     chan struct{}
	done     chan struct{}
}

type replJob struct {
	id      string
	applied uint64
	data    []byte
}

// replQueueLen bounds the async replication queue. Checkpoints are
// periodic and coarse; a full queue drops the oldest update of that
// moment (a later checkpoint supersedes it anyway).
const replQueueLen = 128

// NewNode builds a node over the member list and starts its failure
// detector and replicator. Call Stop on shutdown.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Replicas > len(cfg.Members)-1 {
		cfg.Replicas = len(cfg.Members) - 1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	n := &Node{
		cfg:  cfg,
		repl: make(chan replJob, replQueueLen),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	var peers []string
	for _, m := range cfg.Members {
		if m != cfg.Self {
			peers = append(peers, m)
		}
	}
	n.det = NewDetector(peers, cfg.Probe)
	n.det.Start()
	go n.replLoop()
	return n
}

// Stop halts the failure detector and the replicator.
func (n *Node) Stop() {
	close(n.stop)
	n.det.Stop()
	<-n.done
}

// Detector exposes the node's failure detector (status introspection).
func (n *Node) Detector() *Detector { return n.det }

// ring builds the current routing ring: self (unless draining) plus
// every peer that is alive and not draining.
func (n *Node) ring() *Ring {
	nodes := n.det.Routable()
	if !n.draining.Load() {
		nodes = append(nodes, n.cfg.Self)
	}
	return NewRing(nodes, n.cfg.Vnodes)
}

// Route implements server.Router: the session's owner under the current
// ring, and whether that is this node. An empty ring (everything looks
// dead — e.g. a network partition isolating this node) claims the
// session locally so detection continues; the client's journal replay
// reconciles when the partition heals.
func (n *Node) Route(session string) (owner string, self bool) {
	owner = n.ring().Owner(session)
	if owner == "" {
		return n.cfg.Self, true
	}
	return owner, owner == n.cfg.Self
}

// OnCheckpoint implements server.Config.OnCheckpoint: it enqueues the
// checkpoint for asynchronous replication to the session's ring
// successors. Never blocks the session worker; on overflow the oldest
// queued job is dropped (superseded by this newer one or re-sent at the
// next checkpoint).
func (n *Node) OnCheckpoint(id string, applied uint64, data []byte) {
	if n.cfg.Replicas <= 0 {
		return
	}
	job := replJob{id: id, applied: applied, data: data}
	for {
		select {
		case n.repl <- job:
			return
		default:
		}
		select {
		case old := <-n.repl: // evict oldest
			n.cfg.Logger.Warn("replication job dropped on queue overflow", "component", "cluster",
				"session", old.id, "applied", old.applied)
		default:
		}
	}
}

// OnDrain implements server.Config.OnDrain: the node stops claiming
// sessions. Peers learn via ping replies within one probe interval.
func (n *Node) OnDrain() { n.draining.Store(true) }

// replLoop pushes queued checkpoints to their replica holders.
func (n *Node) replLoop() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		case job := <-n.repl:
			n.replicate(job)
		}
	}
}

func (n *Node) replicate(job replJob) {
	targets := n.ring().Successors(job.id, n.cfg.Replicas)
	for _, addr := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), 10*n.det.cfg.Timeout)
		start := time.Now()
		err := server.PutReplica(ctx, addr, job.id, job.data)
		cancel()
		if err != nil {
			n.cfg.Logger.Warn("replica push failed", "component", "cluster",
				"session", job.id, "applied", job.applied, "target", addr, "err", err)
			continue
		}
		n.cfg.Tracer.Observe(obs.StageReplicaPush, time.Since(start))
	}
}
