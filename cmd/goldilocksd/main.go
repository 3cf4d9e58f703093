// Command goldilocksd is the long-running detection service: many
// client processes stream synchronization events to it over TCP (the
// checksummed goldilocks-stream record format) and receive race
// verdicts with provenance back, one detection engine per session.
//
// With -checkpoint-dir, SIGINT/SIGTERM checkpoints every session's
// engine state before exiting, and the next goldilocksd on the same
// directory restores them: clients reconnect, learn the resume point
// from the welcome message, and continue as if the daemon never
// stopped. See docs/SERVICE.md for the protocol and lifecycle.
//
// With -cluster, the daemon joins a fleet: sessions are consistent-
// hashed across the members, misrouted clients are redirected to the
// owner, every periodic checkpoint is replicated to -replicas ring
// successors, and a member death promotes a follower's replica so the
// session resumes with no lost verdicts. See docs/SERVICE.md.
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 runtime failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"goldilocks/internal/cluster"
	"goldilocks/internal/core"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
	"goldilocks/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:7766", "listen address for detection sessions")
		ckptDir = flag.String("checkpoint-dir", "", "persist sessions here on shutdown and restore them on start (empty: no persistence)")
		metrics = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060; insecure, bind to localhost)")
		queue   = flag.Int("queue", 256, "per-session ingest queue bound; a full queue blocks the producer via TCP backpressure")
		batch   = flag.Int("batch", 64, "actions applied per batch before verdicts are flushed to the client")
		budget  = flag.Int("memory-budget", 0, "per-session event-list cell budget; over it the engine degrades gracefully (0: unbounded)")
		onError = flag.String("on-detector-error", "quarantine", "when a detector check panics: quarantine (drop the variable, keep running) or abort")
		noSC    = flag.Bool("no-shortcircuit", false, "disable the short-circuit checks in session engines (ablation)")
		serial  = flag.Bool("serializability", false, "run a conflict-serializability checker per session (transactions and outermost lock-protected spans); the final ack carries the verdict")

		clusterList = flag.String("cluster", "", "comma-separated member list; joins this daemon to the fleet (must include -join)")
		join        = flag.String("join", "", "this node's advertised address in the -cluster list (default: -addr)")
		replicas    = flag.Int("replicas", 2, "checkpoint replicas per session (ring successors); cluster mode only")
		ckptEvery   = flag.Int("checkpoint-every", 4096, "checkpoint (and replicate) each session every N applied actions (0: only at shutdown); ignored without -checkpoint-dir or -cluster")
		probeIvl    = flag.Duration("probe-interval", 500*time.Millisecond, "failure-detector probe interval; cluster mode only")
		probeTmo    = flag.Duration("probe-timeout", time.Second, "failure-detector probe timeout; cluster mode only")
		suspect     = flag.Int("suspect-after", 3, "consecutive probe failures before a peer is declared dead; cluster mode only")

		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logJSON      = flag.Bool("log-json", false, "emit structured JSON log records instead of text")
		traceSample  = flag.Int("trace-sample", 1024, "sample one ingest record in N into pipeline stage histograms (0: tracing off)")
		flightEvents = flag.Int("flight-events", 4096, "flight-recorder ring capacity in events (0: recorder off)")
		flightDir    = flag.String("flight-dir", "", "write incident flight dumps here (default: <checkpoint-dir>/flight; empty without -checkpoint-dir: no dumps)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: goldilocksd [flags]")
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldilocksd:", err)
		os.Exit(resilience.ExitUsage)
	}
	cfg := daemonConfig{
		addr: *addr, ckptDir: *ckptDir, metricsAddr: *metrics,
		queue: *queue, batch: *batch, budget: *budget, onError: *onError, noSC: *noSC,
		serial:  *serial,
		cluster: *clusterList, join: *join, replicas: *replicas, ckptEvery: *ckptEvery,
		probe:       cluster.ProbeConfig{Interval: *probeIvl, Timeout: *probeTmo, SuspectAfter: *suspect},
		logger:      obs.NewLogger(os.Stderr, level, *logJSON),
		traceSample: *traceSample, flightEvents: *flightEvents, flightDir: *flightDir,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "goldilocksd:", err)
		os.Exit(resilience.ExitRuntime)
	}
	os.Exit(resilience.ExitClean)
}

type daemonConfig struct {
	addr, ckptDir, metricsAddr string
	queue, batch, budget       int
	onError                    string
	noSC                       bool
	serial                     bool
	cluster, join              string
	replicas, ckptEvery        int
	probe                      cluster.ProbeConfig

	logger       *slog.Logger
	traceSample  int
	flightEvents int
	flightDir    string
}

func run(cfg daemonConfig) error {
	errPolicy, err := resilience.ParseErrorPolicy(cfg.onError)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	if cfg.noSC {
		opts.SC1, opts.SC2, opts.SC3, opts.XactSC = false, false, false, false
	}
	opts.OnError = errPolicy
	opts.MemoryBudget = cfg.budget

	reg := obs.NewRegistry()
	log := cfg.logger.With("component", "goldilocksd")
	tracer := obs.NewTracer(cfg.traceSample)
	flight := obs.NewFlightRecorder(cfg.flightEvents)
	flightDir := cfg.flightDir
	if flightDir == "" && cfg.ckptDir != "" {
		flightDir = filepath.Join(cfg.ckptDir, "flight")
	}

	scfg := server.Config{
		Engine:          opts,
		Queue:           cfg.queue,
		Batch:           cfg.batch,
		CheckpointDir:   cfg.ckptDir,
		CheckpointEvery: cfg.ckptEvery,
		Registry:        reg,
		Logger:          cfg.logger,
		Tracer:          tracer,
		Flight:          flight,
		FlightDir:       flightDir,
		Serializability: cfg.serial,
	}

	var node *cluster.Node
	var members []string
	if cfg.cluster != "" {
		for _, m := range strings.Split(cfg.cluster, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		self := cfg.join
		if self == "" {
			self = cfg.addr
		}
		found := false
		for _, m := range members {
			if m == self {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("-join %s is not in the -cluster member list %v", self, members)
		}
		node = cluster.NewNode(cluster.NodeConfig{
			Self:     self,
			Members:  members,
			Replicas: cfg.replicas,
			Probe:    cfg.probe,
			Logger:   cfg.logger,
			Tracer:   tracer,
		})
		defer node.Stop()
		scfg.Advertise = self
		scfg.Router = node
		scfg.OnCheckpoint = node.OnCheckpoint
		scfg.OnDrain = node.OnDrain
		if cfg.ckptDir != "" {
			scfg.ReplicaDir = filepath.Join(cfg.ckptDir, "replicas")
		}
	}

	srv, err := server.New(cfg.addr, scfg)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", srv.Addr(),
		"trace_sample", tracer.SampleEvery(), "flight_events", cfg.flightEvents)
	if node != nil {
		log.Info("cluster member", "self", scfg.Advertise, "members", members, "replicas", cfg.replicas)
	}
	if qs := srv.Quarantined(); len(qs) > 0 {
		for _, q := range qs {
			log.Warn("quarantined corrupt checkpoint", "session", q.Session, "path", q.Path)
		}
	}

	var msrv *obs.Server
	if cfg.metricsAddr != "" {
		msrv, err = obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			srv.Close()
			return err
		}
		log.Info("serving metrics", "url", fmt.Sprintf("http://%s/metrics", msrv.Addr()))
		if node != nil {
			msrv.Handle("/cluster/metrics", cluster.RollupHandler(members, 0))
			log.Info("serving cluster rollup", "url", fmt.Sprintf("http://%s/cluster/metrics", msrv.Addr()))
		}
	}

	// SIGQUIT dumps the flight recorder and keeps running — the
	// operator's "what just happened" button.
	if flight != nil && flightDir != "" {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				if path, err := srv.DumpFlight("sigquit"); err != nil {
					log.Warn("flight dump failed", "reason", "sigquit", "err", err)
				} else {
					log.Info("flight recorder dumped", "reason", "sigquit", "path", path)
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Info("signal received, shutting down")

	err = srv.Close()
	if flight != nil && flightDir != "" {
		if path, derr := srv.DumpFlight("shutdown"); derr != nil {
			log.Warn("flight dump failed", "reason", "shutdown", "err", derr)
		} else {
			log.Info("flight recorder dumped", "reason", "shutdown", "path", path)
		}
	}
	if cerr := msrv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
