package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/benchx"
	"badabing/internal/fleet"
	"badabing/internal/session"
	"badabing/internal/session/wiretransport"
	"badabing/internal/store"
	"badabing/internal/wire"
)

// wireSize is one wire-loopback session: its horizon and harvest step in
// slots.
func wireSize(short bool) (slots, step int64) {
	if short {
		return 200, 50
	}
	return 1000, 50
}

// wireInFlight is how many sessions the open loop keeps in flight on
// average. Each paces its probes with a 2 ms busy-wait before every
// deadline, about a quarter of a CPU, so twice the CPU count stays
// below saturation.
func wireInFlight(cpus int) int { return 2 * cpus }

// wireSpec is one generated session: its seed and the probe count its
// schedule flattens to (the output check).
type wireSpec struct {
	seed   int64
	probes int64
}

func wireSpecFor(seed int64, k int, slots int64) wireSpec {
	s := deriveSeed(seed, "wire-loopback", k)
	plans := badabing.MustSchedule(badabing.ScheduleConfig{P: specP, N: slots, Improved: true, Seed: s})
	return wireSpec{seed: s, probes: int64(len(badabing.ProbeSlots(plans)))}
}

// runWire is the open loop: sessions are created on a fixed schedule
// against the co-hosted reflector, /metrics is scraped at a fixed rate,
// and each session is timed from when its create was due. Traced, a
// second open loop follows the measured window and carries the layer
// probes that do work of their own, so they stay out of its CPU and
// packet counts.
func runWire(o *options, _ *struct{}, tr *tracer) (*pass, error) {
	p := newPass()
	slots, step := wireSize(o.short)
	inFlight := wireInFlight(o.clients)
	d, setup, err := setupDaemon(o.work, o.setupReps, store.FsyncAlways, 2*inFlight, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.e2e["setup_s"] = setup
	cl := newClient(d.base, o.clients, tr, &p.ops)
	defer cl.close()
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		scrape(cl, stop, 500*time.Millisecond)
	}()
	defer func() {
		close(stop)
		scraper.Wait()
	}()

	// Session wall time is the horizon plus the one-second settle; the
	// create interval spreads that over the sessions kept in flight.
	sessionWall := time.Duration(slots)*specSlot + session.DefaultSettle
	loop := wireLoop{cl: cl, d: d, seed: o.seed, slots: slots, step: step,
		interval: sessionWall / time.Duration(inFlight), tr: tr, ops: &p.ops}

	cpu0 := cpuSeconds()
	gc0 := readGCClock()
	refl0 := d.refl.Packets()
	start := time.Now()
	w := loop.run(0, o.seconds)
	cpu := cpuSeconds() - cpu0
	elapsed := time.Since(start).Seconds()

	p.walls = w.sessS
	p.e2e["wall_s_p50"] = median(w.sessS)
	p.e2e["cpu_s_per_unit"] = ratio(cpu, float64(len(w.sessS)))
	p.e2e["useful_exp_per_cpu_s"] = ratio(float64(w.exps), cpu)
	p.report["session_s_p50"] = median(w.sessS)
	p.layer["proc.gc_cpu_frac"] = readGCClock().fracSince(gc0)
	p.layer["load.gen_late_ms_p99"] = quantile(w.late, 0.99) * 1e3
	p.layer["fleet.queue_wait_ms_p50"] = median(w.queue) * 1e3
	p.layer["wire.invalid_frac"] = ratio(float64(w.skipped), float64(w.exps+w.skipped))
	p.layer["wire.reflector_pps"] = float64(d.refl.Packets()-refl0) / elapsed
	p.layer["wire.cpu_ms_per_probe"] = ratio(cpu*1e3, float64(w.probes))
	daemonLayers(p.layer, d, tr, len(w.sessS))
	if tr != nil {
		wireProbes(o, &loop, sessionWall, p)
	}
	return p, nil
}

// wireProbes runs a second open loop for two session lifetimes and,
// once it has reached its steady number in flight, the sender's pacing
// bench and one direct traced session.Run over the wire transport for
// the session-layer split.
func wireProbes(o *options, loop *wireLoop, sessionWall time.Duration, p *pass) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(sessionWall)
		wg.Add(2)
		go func() {
			defer wg.Done()
			pb, err := benchx.RunPacingBench(benchx.Options{Seed: o.seed, PacingSlots: 400})
			if p.ops.check(err == nil, "pacing bench: %v", err) {
				mu.Lock()
				p.layer["wire.pacing_late_us_p99"] = pb.P99us
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			lt := map[string]float64{}
			err := wireTracedSession(loop.d.udp, loop.slots, loop.step, deriveSeed(o.seed, "wire-traced", 0), loop.tr, lt)
			if p.ops.check(err == nil, "traced wire session: %v", err) {
				mu.Lock()
				for k, v := range lt {
					p.layer[k] = v
				}
				mu.Unlock()
			}
		}()
	}()
	loop.run(1<<20, 2*sessionWall) // specs the measured window never reaches
	wg.Wait()
}

// wireLoop creates sessions on a fixed schedule.
type wireLoop struct {
	cl          *client
	d           *daemon
	seed        int64
	slots, step int64
	interval    time.Duration
	tr          *tracer
	ops         *tally
}

// wireStats are the completed sessions of one open loop.
type wireStats struct {
	sessS, late, queue    []float64
	exps, skipped, probes int64
}

// run creates a session every interval for dur, the k-th with spec
// first+k, and waits until every one has ended.
func (l *wireLoop) run(first int, dur time.Duration) wireStats {
	var mu sync.Mutex
	var w wireStats
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * l.interval)
		if k > 0 && due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		spec := wireSpecFor(l.seed, first+k, l.slots)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, ok := wireSession(l.cl, l.d, spec, l.slots, l.step, due, l.tr, l.ops)
			if !ok {
				return
			}
			mu.Lock()
			w.sessS = append(w.sessS, r.sessionS)
			w.late = append(w.late, r.lateS)
			w.queue = append(w.queue, r.queueS)
			w.exps += r.c.Experiments
			w.skipped += r.c.Skipped
			w.probes += r.c.ProbesSent
			mu.Unlock()
		}()
	}
	wg.Wait()
	return w
}

// scrape GETs /metrics every period until stop closes.
func scrape(cl *client, stop <-chan struct{}, period time.Duration) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			cl.call("obs.metrics", "scrape", 0, "GET", "/metrics", nil, http.StatusOK, nil)
		}
	}
}

type wireOutcome struct {
	sessionS, lateS, queueS float64
	c                       fleet.SessionCounters
}

// wireSession creates one wire session at its due time, polls it to
// completion and checks it ended done with every scheduled probe sent.
func wireSession(cl *client, d *daemon, spec wireSpec, slots, step int64, due time.Time, tr *tracer, ops *tally) (wireOutcome, bool) {
	var r wireOutcome
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	root := tr.id()
	r.lateS = time.Since(due).Seconds()
	var v fleet.View
	if err := cl.call("fleet.create", "", root, "POST", "/v1/sessions", fleet.SessionConfig{
		Scenario: "wire", Target: d.udp, Slots: slots, StepSlots: step, Seed: spec.seed,
	}, http.StatusCreated, &v); err != nil {
		return r, false
	}
	id := v.ID
	d.sink.adopt(id, root)
	defer d.sink.forget(id)
	if _, err := cl.pollDone(ctx, id, root, 200*time.Millisecond); err != nil {
		return r, false
	}
	at, err := d.sink.waitPersisted(ctx, id)
	if !ops.check(err == nil, "%v", err) {
		return r, false
	}
	tr.record(root, 0, id, "session", due, at)
	var final fleet.View
	if cl.call("fleet.get", id, root, "GET", "/v1/sessions/"+id, nil, http.StatusOK, &final) != nil ||
		cl.call("fleet.delete", id, root, "DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil) != nil {
		return r, false
	}
	done := ops.check(final.State == fleet.Done, "session %s ended %v: %s", id, final.State, final.Error)
	ops.check(final.Counters.ProbesSent == spec.probes, "session %s sent %d probes, schedule has %d",
		id, final.Counters.ProbesSent, spec.probes)
	r.sessionS = at.Sub(due).Seconds()
	if final.Started != nil {
		r.queueS = final.Started.Sub(final.Created).Seconds()
	}
	r.c = final.Counters
	return r, done
}

// wireTracedSession runs one session directly over the wire transport,
// built as the daemon's "wire" scenario builds it, through stepTracer.
func wireTracedSession(target string, slots, step, seed int64, tr *tracer, layer map[string]float64) error {
	t, err := wiretransport.DialOptions(target, wire.SenderConfig{
		ExpID: uint64(seed), P: specP, N: slots, Slot: specSlot, Improved: true, Seed: seed,
	}, wiretransport.Options{Liveness: wire.LivenessConfig{Seed: seed}})
	if err != nil {
		return err
	}
	defer t.Close()
	st := &stepTracer{Transport: t, tr: tr, trace: fmt.Sprintf("wire-ref-%d", seed)}
	cfg := sessionConfig(slots, step, seed)
	res, err := session.Run(context.Background(), st, cfg, func(session.Update) { st.published() })
	if err != nil {
		return err
	}
	addStepLayers(layer, st.profile())
	obs, inv := t.Observations()
	addMarkLayers(layer, obs, inv, res, cfg)
	return nil
}
