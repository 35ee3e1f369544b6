package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"badabing/internal/fleet"
	"badabing/internal/obs"
	"badabing/internal/store"
	"badabing/internal/wire"
)

// daemon is an in-process badabingd: the WAL-backed store, the session
// registry and the HTTP API on a loopback listener, plus a co-hosted UDP
// reflector, composed the way cmd/badabingd composes them.
type daemon struct {
	dir   string
	sink  *timedSink
	reg   *fleet.Registry
	srv   *http.Server
	serve chan error
	refl  *wire.Reflector
	rdone chan struct{}
	base  string // http://host:port
	udp   string // reflector host:port
}

// startDaemon builds a daemon over a fresh data directory. The returned
// daemon accepts connections; close tears it down and removes dir.
func startDaemon(dir string, fsync store.FsyncPolicy, maxConcurrent int, tr *tracer) (*daemon, error) {
	st, _, err := store.Open(store.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	o := obs.NewRegistry()
	st.RegisterMetrics(o)
	d := &daemon{dir: dir, sink: newTimedSink(st, tr)}
	d.reg = fleet.NewRegistry(fleet.Config{MaxConcurrent: maxConcurrent, Store: d.sink})

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		d.reg.Close()
		return nil, fmt.Errorf("reflector: %w", err)
	}
	d.refl = wire.NewReflectorConfig(pc, wire.ReflectorConfig{Shards: wire.DefaultReflectorShards()})
	d.refl.RegisterMetrics(o)
	d.udp = pc.LocalAddr().String()
	d.rdone = make(chan struct{})
	go func() {
		d.refl.Run()
		close(d.rdone)
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeBackend()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{
		Handler:           fleet.NewHandlerOpts(d.reg, fleet.HandlerOptions{Obs: o}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.srv.Serve(ln) }()
	return d, nil
}

// closeBackend stops the sessions, closes the store (through the
// registry) and the reflector, and removes the data directory.
func (d *daemon) closeBackend() {
	d.reg.Close()
	d.refl.Close()
	<-d.rdone
	os.RemoveAll(d.dir)
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.closeBackend()
	return err
}

// timedSink sits between the registry and the store. It always records
// when each session's terminal-state append returns — the end of the
// end-to-end clock — and, in the traced run, a span around every call.
type timedSink struct {
	st *store.Store
	tr *tracer

	mu       sync.Mutex
	terminal map[string]*persisted
	parents  map[string]int64 // session id -> the client's root span
}

type persisted struct {
	done chan struct{}
	at   time.Time
}

func newTimedSink(st *store.Store, tr *tracer) *timedSink {
	return &timedSink{st: st, tr: tr,
		terminal: make(map[string]*persisted), parents: make(map[string]int64)}
}

func (s *timedSink) entry(id string) *persisted {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.terminal[id]
	if p == nil {
		p = &persisted{done: make(chan struct{})}
		s.terminal[id] = p
	}
	return p
}

// adopt names the client span that session id's store calls descend
// from.
func (s *timedSink) adopt(id string, parent int64) {
	s.mu.Lock()
	s.parents[id] = parent
	s.mu.Unlock()
}

func (s *timedSink) span(id, name string, start time.Time) {
	if s.tr == nil {
		return
	}
	s.mu.Lock()
	parent := s.parents[id]
	s.mu.Unlock()
	s.tr.record(0, parent, id, name, start, time.Now())
}

// waitPersisted blocks until session id's terminal state has been
// appended and returns when that append returned.
func (s *timedSink) waitPersisted(ctx context.Context, id string) (time.Time, error) {
	p := s.entry(id)
	select {
	case <-p.done:
		return p.at, nil
	case <-ctx.Done():
		return time.Time{}, fmt.Errorf("session %s: terminal state never persisted: %w", id, ctx.Err())
	}
}

func (s *timedSink) forget(id string) {
	s.mu.Lock()
	delete(s.terminal, id)
	delete(s.parents, id)
	s.mu.Unlock()
}

func (s *timedSink) SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error {
	t0 := time.Now()
	err := s.st.SessionCreated(id, at, cfgJSON, seed)
	s.span(id, "store.append", t0)
	return err
}

func (s *timedSink) SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error {
	t0 := time.Now()
	err := s.st.SessionState(id, at, state, terminal, errMsg, retries, seed)
	end := time.Now()
	s.span(id, "store.append", t0)
	if terminal {
		p := s.entry(id)
		s.mu.Lock()
		if p.at.IsZero() {
			p.at = end
			close(p.done)
		}
		s.mu.Unlock()
	}
	return err
}

func (s *timedSink) SessionPoint(id string, p store.Point) error {
	t0 := time.Now()
	err := s.st.SessionPoint(id, p)
	s.span(id, "store.append", t0)
	return err
}

func (s *timedSink) RegistryTotals(t store.Totals) error {
	t0 := time.Now()
	err := s.st.RegistryTotals(t)
	s.span("registry", "store.append", t0)
	return err
}

func (s *timedSink) History(id string, from, to time.Time) ([]store.Point, bool) {
	t0 := time.Now()
	pts, ok := s.st.History(id, from, to)
	s.span(id, "store.history", t0)
	return pts, ok
}

func (s *timedSink) Stats() store.Stats { return s.st.Stats() }

func (s *timedSink) Unwrap() fleet.Sink { return s.st }

func (s *timedSink) Close() error { return s.st.Close() }

// client speaks to the daemon's HTTP API over at most conns keep-alive
// connections. Every request is one operation in the tally: a transport
// error or a status other than want counts as failed.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	ops  *tally
}

func newClient(base string, conns int, tr *tracer, ops *tally) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: time.Minute}, tr: tr, ops: ops}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call issues one request and decodes a JSON reply into out (when
// non-nil). name labels the span; trace and parent place it.
func (c *client) call(name, trace string, parent int64, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.ops.check(false, "%s %s: %v", method, path, err)
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if out != nil && resp.StatusCode == want && err == nil {
		err = json.Unmarshal(data, out)
	}
	if c.tr != nil {
		if trace == "" && out != nil {
			// A create's reply names the session the span belongs to.
			if v, ok := out.(*fleet.View); ok {
				trace = v.ID
			}
		}
		c.tr.record(0, parent, trace, name, t0, end)
	}
	if !c.ops.check(resp.StatusCode == want && err == nil, "%s %s: status %d (want %d) %v",
		method, path, resp.StatusCode, want, err) {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return nil
}

// snapshotReply is GET /v1/sessions/{id}/snapshot.
type snapshotReply struct {
	ID       string          `json:"id"`
	State    fleet.State     `json:"state"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// historyReply is GET /v1/sessions/{id}/history.
type historyReply struct {
	Points []store.Point `json:"points"`
}

// pollDone polls a session's snapshot every period until it reaches a
// terminal state, and returns the last reply.
func (c *client) pollDone(ctx context.Context, id string, parent int64, period time.Duration) (snapshotReply, error) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		var r snapshotReply
		if err := c.call("fleet.snapshot", id, parent, "GET", "/v1/sessions/"+id+"/snapshot", nil, http.StatusOK, &r); err != nil {
			return r, err
		}
		if r.State.Terminal() {
			return r, nil
		}
		select {
		case <-ctx.Done():
			return r, fmt.Errorf("session %s still %v: %w", id, r.State, ctx.Err())
		case <-tick.C:
		}
	}
}

// setupDaemon builds the daemon reps times, timing each build until the
// listener accepts, tears down all but the last and returns it with the
// median build time. A collection first keeps garbage left by earlier
// work (the reference sessions) from being collected during the builds.
func setupDaemon(root string, reps int, fsync store.FsyncPolicy, maxConcurrent int, tr *tracer) (*daemon, float64, error) {
	runtime.GC()
	var times []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, 0, err
			}
		}
		dir, err := os.MkdirTemp(root, "wal-")
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		d, err = startDaemon(dir, fsync, maxConcurrent, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}
