package cluster_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"goldilocks/internal/cluster"
	"goldilocks/internal/conformance"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/server"
)

// lateRouter lets a server start before its cluster node exists (the
// member list needs every listener's port, which only exists after the
// servers are up). Until set, every session is self-owned.
type lateRouter struct {
	mu    sync.Mutex
	inner server.Router
}

func (l *lateRouter) set(r server.Router) {
	l.mu.Lock()
	l.inner = r
	l.mu.Unlock()
}

func (l *lateRouter) Route(session string) (string, bool) {
	l.mu.Lock()
	r := l.inner
	l.mu.Unlock()
	if r == nil {
		return "", true
	}
	return r.Route(session)
}

// lateHooks forwards the server's checkpoint/drain hooks to a node set
// after construction.
type lateHooks struct {
	mu   sync.Mutex
	node *cluster.Node
}

func (l *lateHooks) set(n *cluster.Node) {
	l.mu.Lock()
	l.node = n
	l.mu.Unlock()
}

func (l *lateHooks) get() *cluster.Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.node
}

func (l *lateHooks) onCheckpoint(id string, applied uint64, data []byte) {
	if n := l.get(); n != nil {
		n.OnCheckpoint(id, applied, data)
	}
}

func (l *lateHooks) onDrain() {
	if n := l.get(); n != nil {
		n.OnDrain()
	}
}

// fastProbe converges in a few hundred milliseconds so the tests don't
// crawl.
var fastProbe = cluster.ProbeConfig{
	Interval:     50 * time.Millisecond,
	Timeout:      250 * time.Millisecond,
	SuspectAfter: 2,
}

// testFleet is an in-process cluster of n goldilocksd servers wired to
// their nodes.
type testFleet struct {
	srvs  []*server.Server
	nodes []*cluster.Node
	addrs []string
}

func startFleet(t *testing.T, n, replicas, ckptEvery int) *testFleet {
	t.Helper()
	f := &testFleet{}
	var routers []*lateRouter
	var hooks []*lateHooks
	for i := 0; i < n; i++ {
		lr, hk := &lateRouter{}, &lateHooks{}
		dir := t.TempDir()
		srv, err := server.New("127.0.0.1:0", server.Config{
			Queue:           16,
			Batch:           4,
			CheckpointDir:   dir,
			ReplicaDir:      filepath.Join(dir, "replicas"),
			CheckpointEvery: ckptEvery,
			Registry:        obs.NewRegistry(),
			Router:          lr,
			OnCheckpoint:    hk.onCheckpoint,
			OnDrain:         hk.onDrain,
		})
		if err != nil {
			t.Fatalf("starting server %d: %v", i, err)
		}
		f.srvs = append(f.srvs, srv)
		f.addrs = append(f.addrs, srv.Addr())
		routers, hooks = append(routers, lr), append(hooks, hk)
	}
	for i := 0; i < n; i++ {
		node := cluster.NewNode(cluster.NodeConfig{
			Self:     f.addrs[i],
			Members:  f.addrs,
			Replicas: replicas,
			Probe:    fastProbe,
		})
		f.nodes = append(f.nodes, node)
		routers[i].set(node)
		hooks[i].set(node)
	}
	t.Cleanup(func() {
		for _, node := range f.nodes {
			node.Stop()
		}
		for _, srv := range f.srvs {
			srv.Close() // no-op for killed members
		}
	})
	return f
}

// checkSession compares one finished fleet session against the
// executable specification.
func checkSession(t *testing.T, name string, tr *event.Trace, c *server.Client, ack server.Ack) {
	t.Helper()
	backend := func(*event.Trace) (conformance.BackendResult, error) {
		res := conformance.BackendResult{Races: c.Races()}
		if len(ack.RuleFires) == obs.NumRules+1 {
			copy(res.RuleFires[:], ack.RuleFires)
			res.HasRuleFires = true
		}
		return res, nil
	}
	if div := conformance.CheckBackend("cluster", backend, tr); div != nil {
		t.Errorf("%s (failovers=%d): %v", name, c.Failovers(), div)
	}
}

// TestClusterFailoverConvergence is the in-process chaos drill: stream
// half of every Section 2 scenario into a 3-node fleet, hard-kill the
// member owning the most sessions, finish streaming through client
// failover, and require every session to converge to exactly the
// specification's verdicts and rule fires — with zero caller-visible
// errors and at least one real failover.
func TestClusterFailoverConvergence(t *testing.T) {
	f := startFleet(t, 3, 2, 4)
	cfg := server.DialConfig{BaseDelay: 20 * time.Millisecond, FailoverTimeout: 30 * time.Second}
	ctx := context.Background()

	type run struct {
		name    string
		tr      *event.Trace
		c       *server.Client
		session string
	}
	var runs []run
	for i, sc := range scenarios.All() {
		session := fmt.Sprintf("failover-%d", i)
		c, err := server.DialFleet(ctx, f.addrs, session, cfg)
		if err != nil {
			t.Fatalf("%s: dialing fleet: %v", sc.Name, err)
		}
		runs = append(runs, run{name: sc.Name, tr: sc.Trace, c: c, session: session})
		for j := 0; j < sc.Trace.Len()/2; j++ {
			if err := c.Send(sc.Trace.At(j)); err != nil {
				t.Fatalf("%s: streaming first half: %v", sc.Name, err)
			}
		}
		if _, err := c.Flush(); err != nil {
			t.Fatalf("%s: flushing first half: %v", sc.Name, err)
		}
	}

	// Kill the member owning the most sessions, so the drill is
	// guaranteed to exercise failover.
	ring := cluster.NewRing(f.addrs, 0)
	counts := make(map[string]int)
	for _, r := range runs {
		counts[ring.Owner(r.session)]++
	}
	victim := 0
	for i, addr := range f.addrs {
		if counts[addr] > counts[f.addrs[victim]] {
			victim = i
		}
	}
	t.Logf("killing %s (owns %d of %d sessions)", f.addrs[victim], counts[f.addrs[victim]], len(runs))
	f.srvs[victim].Kill()
	f.nodes[victim].Stop()
	f.nodes[victim] = cluster.NewNode(cluster.NodeConfig{ // inert replacement so Cleanup's Stop is safe
		Self: f.addrs[victim], Members: []string{f.addrs[victim]}, Probe: fastProbe,
	})

	failovers := 0
	for _, r := range runs {
		for j := r.tr.Len() / 2; j < r.tr.Len(); j++ {
			if err := r.c.Send(r.tr.At(j)); err != nil {
				t.Fatalf("%s: streaming second half: %v", r.name, err)
			}
		}
		ack, err := r.c.Close()
		if err != nil {
			t.Fatalf("%s: closing: %v", r.name, err)
		}
		failovers += r.c.Failovers()
		checkSession(t, r.name, r.tr, r.c, ack)
	}
	if failovers == 0 {
		t.Fatal("no client failed over; the kill exercised nothing")
	}
	t.Logf("%d sessions converged with %d failovers", len(runs), failovers)
}

// TestClusterDrainMigration: finish sessions on a 3-node fleet, drain
// one member via the coordinator, and require (a) the drained node to
// be empty, (b) every migrated session to resume at its full applied
// count from its new owner.
func TestClusterDrainMigration(t *testing.T) {
	f := startFleet(t, 3, 1, 4)
	cfg := server.DialConfig{BaseDelay: 20 * time.Millisecond, FailoverTimeout: 15 * time.Second}
	ctx := context.Background()

	applied := make(map[string]uint64)
	traces := scenarios.All()[:4]
	for i, sc := range traces {
		session := fmt.Sprintf("drain-%d", i)
		c, err := server.DialFleet(ctx, f.addrs, session, cfg)
		if err != nil {
			t.Fatalf("%s: dialing: %v", sc.Name, err)
		}
		for j := 0; j < sc.Trace.Len(); j++ {
			if err := c.Send(sc.Trace.At(j)); err != nil {
				t.Fatalf("%s: send: %v", sc.Name, err)
			}
		}
		ack, err := c.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", sc.Name, err)
		}
		applied[session] = ack.Applied
	}

	// Drain whichever member holds at least one session.
	co := &cluster.Coordinator{Members: f.addrs, Replicas: 1, Timeout: 5 * time.Second}
	victim := ""
	for _, st := range co.Status(ctx) {
		if len(st.Sessions) > 0 {
			victim = st.Addr
			break
		}
	}
	if victim == "" {
		t.Fatal("no member holds any session")
	}
	moved, err := co.Drain(ctx, victim)
	if err != nil {
		t.Fatalf("draining %s: %v", victim, err)
	}
	if moved == 0 {
		t.Fatalf("drain of %s moved no sessions", victim)
	}

	for _, st := range co.Status(ctx) {
		if st.Addr == victim && len(st.Sessions) > 0 {
			t.Errorf("drained node %s still holds %d sessions", victim, len(st.Sessions))
		}
	}

	// Every session must resume, at full progress, from a surviving node.
	for session, want := range applied {
		c, err := server.DialFleet(ctx, f.addrs, session, cfg)
		if err != nil {
			t.Fatalf("re-dialing %s: %v", session, err)
		}
		if !c.Resumed() || c.Next() != want {
			t.Errorf("%s: resumed=%v next=%d, want resumed at %d", session, c.Resumed(), c.Next(), want)
		}
		c.Abandon()
	}
}

// TestRollup: the cluster metrics rollup labels every per-node sample,
// sums the label-free goldilocksd_* families, and survives unreachable
// members.
func TestRollup(t *testing.T) {
	f := startFleet(t, 2, 0, 0)
	members := append(append([]string(nil), f.addrs...), "127.0.0.1:1") // one dead member

	// Give each node one session it owns, so the per-node samples and
	// the summed counters are both non-zero.
	ring := cluster.NewRing(f.addrs, 0)
	sc := scenarios.All()[0]
	for _, addr := range f.addrs {
		session := ""
		for i := 0; session == "" && i < 10000; i++ {
			if s := fmt.Sprintf("rollup-%d", i); ring.Owner(s) == addr {
				session = s
			}
		}
		if session == "" {
			t.Fatalf("no session id hashes to %s", addr)
		}
		if _, _, err := server.StreamTrace(addr, session, sc.Trace); err != nil {
			t.Fatalf("seeding node %s: %v", addr, err)
		}
	}

	out := string(cluster.Rollup(context.Background(), members, 2*time.Second))
	for _, want := range []string{
		fmt.Sprintf(`goldilocksd_sessions_total{node=%q} 1`, f.addrs[0]),
		fmt.Sprintf(`goldilocksd_sessions_total{node=%q} 1`, f.addrs[1]),
		"goldilocksd_cluster_sessions_total 2",
		"goldilocksd_cluster_nodes 3",
		"goldilocksd_cluster_nodes_up 2",
		"# node 127.0.0.1:1 unreachable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rollup missing %q\n---\n%s", want, out)
		}
	}
}
