package main

import (
	"context"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/server"
)

// remoteSession adapts a goldilocksd session to a trace-level detector:
// every runtime event is streamed to the daemon, and verdicts come back
// asynchronously (collected at finish, printed with the run's race
// report). Step therefore always returns nil — remote detection cannot
// throw a DataRaceException into the accessing thread, which is why
// -remote forces the log policy.
//
// The runtime reaches the session through jrt.Serialize (or jrt.Record),
// whose mutex fixes the streamed linearization to the order the
// detector calls were made in.
type remoteSession struct {
	c   *server.Client
	err error // first send failure; finish reports it
}

func dialRemote(addr, session string) (*remoteSession, error) {
	// addr may be a single daemon or a comma-separated fleet list; a
	// fleet client follows NOT_OWNER redirects and fails over.
	c, err := server.DialAuto(context.Background(), addr, session)
	if err != nil {
		return nil, err
	}
	return &remoteSession{c: c}, nil
}

func (r *remoteSession) Name() string { return "remote" }

// Step streams a to the daemon; its verdict arrives later.
func (r *remoteSession) Step(a event.Action) []detect.Race {
	if r.err == nil {
		r.err = r.c.Send(a)
	}
	return nil
}

// finish completes the session once the run is over: everything
// streamed is applied, the daemon's verdicts are available via races,
// and the final ack carries the session engine's counters.
func (r *remoteSession) finish() (server.Ack, error) {
	if r.err != nil {
		r.c.Abandon()
		return server.Ack{}, r.err
	}
	return r.c.Close()
}

// races returns the verdicts received so far.
func (r *remoteSession) races() []detect.Race { return r.c.Races() }
