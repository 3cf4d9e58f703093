package cluster

import (
	"context"
	"sync"
	"time"

	"goldilocks/internal/server"
)

// ProbeConfig tunes the heartbeat failure detector.
type ProbeConfig struct {
	// Interval between liveness probes of each peer. Default 500ms.
	Interval time.Duration
	// Timeout bounds one probe exchange. Default 1s.
	Timeout time.Duration
	// SuspectAfter is how many consecutive probe failures mark a peer
	// dead. One failure is routine (a dropped SYN, a GC pause); a node is
	// only declared dead — and its sessions only rerouted — after this
	// many in a row. Default 3.
	SuspectAfter int
}

func (cfg ProbeConfig) withDefaults() ProbeConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	return cfg
}

// PeerState is one peer as the failure detector sees it.
type PeerState struct {
	Addr     string    `json:"addr"`
	Alive    bool      `json:"alive"`
	Draining bool      `json:"draining,omitempty"`
	Sessions int       `json:"sessions"`
	Failures int       `json:"failures,omitempty"` // consecutive probe failures
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// Detector is a per-node heartbeat failure detector: it probes every
// peer over the admin protocol at a fixed interval and declares a peer
// dead after SuspectAfter consecutive failures. Draining state travels
// in ping replies, so routing converges away from a draining node
// within one probe interval without any extra gossip.
//
// Every node runs its own detector over the same static member list;
// there is no elected observer to lose.
type Detector struct {
	cfg   ProbeConfig
	peers []string

	mu    sync.Mutex
	state map[string]*PeerState

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewDetector builds (but does not start) a detector probing peers.
// Peers start out alive with zero failures: a fleet booting in any
// order must not mark a slightly-later peer dead before its first
// probe succeeds.
func NewDetector(peers []string, cfg ProbeConfig) *Detector {
	d := &Detector{cfg: cfg.withDefaults(), stop: make(chan struct{}), state: make(map[string]*PeerState)}
	for _, p := range peers {
		if p == "" || d.state[p] != nil {
			continue
		}
		d.peers = append(d.peers, p)
		d.state[p] = &PeerState{Addr: p, Alive: true}
	}
	return d
}

// Start launches one prober goroutine per peer.
func (d *Detector) Start() {
	for _, p := range d.peers {
		d.wg.Add(1)
		go d.probeLoop(p)
	}
}

// Stop halts probing and waits for the probers to exit.
func (d *Detector) Stop() {
	close(d.stop)
	d.wg.Wait()
}

func (d *Detector) probeLoop(peer string) {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		d.probe(peer)
		select {
		case <-d.stop:
			return
		case <-t.C:
		}
	}
}

func (d *Detector) probe(peer string) {
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Timeout)
	info, err := server.Ping(ctx, peer)
	cancel()
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state[peer]
	if err != nil {
		st.Failures++
		if st.Failures >= d.cfg.SuspectAfter {
			st.Alive = false
		}
		return
	}
	st.Failures = 0
	st.Alive = true
	st.Draining = info.Draining
	st.Sessions = info.Sessions
	st.LastSeen = time.Now()
}

// Routable returns the peers that should be on the routing ring: alive
// and not draining.
func (d *Detector) Routable() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, p := range d.peers {
		if st := d.state[p]; st.Alive && !st.Draining {
			out = append(out, p)
		}
	}
	return out
}
