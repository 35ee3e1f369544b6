package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/estimate"
	"badabing/internal/fleet"
	"badabing/internal/probe"
	"badabing/internal/session"
	"badabing/internal/session/simtransport"
	"badabing/internal/simnet"
	"badabing/internal/store"
)

// Session specs as the daemon defaults them: p 0.3, improved design,
// 5 ms slots, window of a quarter of the horizon (at least 1000 slots).
const (
	specP    = 0.3
	specSlot = 5 * time.Millisecond
)

func specWindow(slots int64) int64 { return max(slots/4, 1000) }

// sessionConfig is the session.Config the daemon runs for a spec with
// the given horizon, harvest step and seed.
func sessionConfig(slots, step, seed int64) session.Config {
	return session.Config{
		P: specP, Slots: slots, Slot: specSlot, Improved: true, Seed: seed,
		WindowSlots: specWindow(slots), StepSlots: step,
	}
}

// stepTracer decorates a session.Transport: it times AdvanceTo and
// Observations, and with the publish hook below marks when each harvest
// step published, so every step splits into advance, observations and
// the rest of harvest (marking, assembly, estimation).
type stepTracer struct {
	session.Transport
	tr    *tracer
	trace string

	advStart, advEnd, obsStart, obsEnd, publish []time.Time
}

func (s *stepTracer) AdvanceTo(ctx context.Context, t time.Duration) error {
	t0 := time.Now()
	err := s.Transport.AdvanceTo(ctx, t)
	t1 := time.Now()
	s.advStart = append(s.advStart, t0)
	s.advEnd = append(s.advEnd, t1)
	s.tr.record(0, 0, s.trace, "session.AdvanceTo", t0, t1)
	return err
}

func (s *stepTracer) Observations() ([]badabing.ProbeObs, map[int64]bool) {
	t0 := time.Now()
	obs, inv := s.Transport.Observations()
	t1 := time.Now()
	s.obsStart = append(s.obsStart, t0)
	s.obsEnd = append(s.obsEnd, t1)
	s.tr.record(0, 0, s.trace, "session.Observations", t0, t1)
	return obs, inv
}

func (s *stepTracer) published() {
	now := time.Now()
	s.publish = append(s.publish, now)
	if n := len(s.obsEnd); n > 0 {
		s.tr.record(0, 0, s.trace, "session.harvest", s.obsEnd[n-1], now)
	}
}

// stepProfile summarises a traced session.Run: a step runs from one
// AdvanceTo call to the next (the last one to its publish).
type stepProfile struct {
	steps                          []float64 // seconds
	advance, observations, harvest float64   // summed seconds
}

func (s *stepTracer) profile() stepProfile {
	var p stepProfile
	n := min(len(s.advStart), len(s.obsEnd), len(s.publish))
	for i := 0; i < n; i++ {
		end := s.publish[i]
		if i+1 < len(s.advStart) {
			end = s.advStart[i+1]
		}
		s.tr.record(0, 0, s.trace, "session.step", s.advStart[i], end)
		p.steps = append(p.steps, end.Sub(s.advStart[i]).Seconds())
		p.advance += s.advEnd[i].Sub(s.advStart[i]).Seconds()
		p.observations += s.obsEnd[i].Sub(s.obsStart[i]).Seconds()
		p.harvest += s.publish[i].Sub(s.obsEnd[i]).Seconds()
	}
	return p
}

// addStepLayers derives the session.* metrics from a step profile: the
// mean step time over the first and the last tenth of steps, their
// ratio, and what share of all step time each part took.
func addStepLayers(layer map[string]float64, p stepProfile) {
	n := len(p.steps)
	if n == 0 {
		return
	}
	k := max(n/10, 1)
	first := sum(p.steps[:k]) / float64(k)
	last := sum(p.steps[n-k:]) / float64(k)
	total := sum(p.steps)
	layer["session.step_ms_first"] = first * 1e3
	layer["session.step_ms_last"] = last * 1e3
	layer["session.step_growth"] = ratio(last, first)
	layer["session.advance_share"] = ratio(p.advance, total)
	layer["session.observations_share"] = ratio(p.observations, total)
	layer["session.harvest_share"] = ratio(p.harvest, total)
	layer["session.accounted_frac"] = ratio(p.advance+p.observations+p.harvest, total)
}

// addMarkLayers times the marking and estimation cores on one finished
// session's observations: badabing.Mark per observation and the batch
// estimator per experiment, each the median of five runs.
func addMarkLayers(layer map[string]float64, obs []badabing.ProbeObs, inv map[int64]bool, res *session.Result, cfg session.Config) {
	if len(obs) == 0 || len(res.Plans) == 0 {
		return
	}
	marker := badabing.RecommendedMarker(cfg.P, cfg.Slot)
	var mark, observe []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		badabing.Mark(obs, marker)
		mark = append(mark, float64(time.Since(t0).Nanoseconds())/float64(len(obs)))
	}
	bySlot := session.MarkSlots(obs, inv, marker)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		estimate.Batch(cfg.Estimator, estimate.Params{Slot: cfg.Slot}, res.Plans, bySlot)
		observe = append(observe, float64(time.Since(t0).Nanoseconds())/float64(len(res.Plans)))
	}
	layer["badabing.mark_ns_per_obs"] = median(mark)
	layer["estimate.observe_ns"] = median(observe)
}

// simRef is the expected outcome of one sim-long spec: a direct
// session.Run of the same idle-path spec and seed, outside the timed
// window.
type simRef struct {
	seed     int64
	snapJSON []byte
	counters session.Counters
}

type simInput struct {
	slots int64
	refs  []simRef // one spec per client
}

func simSlots(short bool) int64 {
	if short {
		return 12_000
	}
	return 180_000 // 900 s at 5 ms: the paper's horizon
}

// prepareSimLong runs the reference session of every client's spec, in
// parallel. Traced, the first reference run also yields the session,
// simnet, badabing and estimate layer metrics.
func prepareSimLong(o *options, tr *tracer, layer map[string]float64) (*simInput, error) {
	in := &simInput{slots: simSlots(o.short), refs: make([]simRef, o.clients)}
	errs := make([]error, o.clients)
	var wg sync.WaitGroup
	for c := range in.refs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := deriveSeed(o.seed, "sim-long", c)
			var lt map[string]float64
			if c == 0 && tr != nil {
				lt = layer
			}
			in.refs[c], errs[c] = idleReference(in.slots, seed, tr, lt)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if o.tamper {
		in.refs[0].counters.Experiments++
	}
	return in, nil
}

// idleReference runs one idle-path session directly, as the daemon's
// "idle" scenario builds it. With layer non-nil it is traced through
// stepTracer and fills layer.
func idleReference(slots, seed int64, tr *tracer, layer map[string]float64) (simRef, error) {
	sim := simnet.New()
	d := simnet.NewDumbbell(sim, simnet.DumbbellConfig{})
	var t session.Transport = simtransport.New(sim, d, 7, probe.BadabingConfig{Slot: specSlot})
	var st *stepTracer
	var publish func(session.Update)
	if layer != nil {
		st = &stepTracer{Transport: t, tr: tr, trace: fmt.Sprintf("ref-%d", seed)}
		t = st
		publish = func(session.Update) { st.published() }
	}
	cfg := sessionConfig(slots, 1000, seed)
	res, err := session.Run(context.Background(), t, cfg, publish)
	if err != nil {
		return simRef{}, fmt.Errorf("reference session: %w", err)
	}
	snap, err := json.Marshal(res.Final.Snapshot)
	if err != nil {
		return simRef{}, err
	}
	if st != nil {
		prof := st.profile()
		addStepLayers(layer, prof)
		arrived, _, _ := d.Bottleneck.Stats()
		layer["simnet.pkts_per_s"] = ratio(float64(arrived), prof.advance)
		layer["simnet.advance_share"] = layer["session.advance_share"]
		obs, inv := st.Transport.Observations()
		addMarkLayers(layer, obs, inv, res, cfg)
	}
	return simRef{seed: seed, snapJSON: snap, counters: res.Final.Counters}, nil
}

// runSimLong is the closed loop: each client creates its paper-length
// idle session, polls the snapshot until done, reads the persisted
// history and deletes the session, then starts the next until the
// window closes.
func runSimLong(o *options, in *simInput, tr *tracer) (*pass, error) {
	p := newPass()
	d, setup, err := setupDaemon(o.work, o.setupReps, store.FsyncInterval, o.clients, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.e2e["setup_s"] = setup
	cl := newClient(d.base, o.clients, tr, &p.ops)
	defer cl.close()

	var mu sync.Mutex
	var sessS, queue []float64
	var exps int64
	cpu0 := cpuSeconds()
	gc0 := readGCClock()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(ref simRef) {
			defer wg.Done()
			for time.Since(start) < o.seconds {
				s, q, e, ok := simSession(cl, d, in.slots, ref, tr, &p.ops)
				if ok {
					mu.Lock()
					sessS = append(sessS, s)
					queue = append(queue, q)
					exps += e
					mu.Unlock()
				}
			}
		}(in.refs[c])
	}
	wg.Wait()
	cpu := cpuSeconds() - cpu0
	p.walls = sessS
	p.e2e["wall_s_p50"] = median(sessS)
	p.e2e["cpu_s_per_unit"] = ratio(cpu, float64(len(sessS)))
	p.e2e["useful_exp_per_cpu_s"] = ratio(float64(exps), cpu)
	p.report["session_s_p50"] = median(sessS)
	p.report["session_cpu_s"] = p.e2e["cpu_s_per_unit"]
	p.layer["proc.gc_cpu_frac"] = readGCClock().fracSince(gc0)
	p.layer["fleet.queue_wait_ms_p50"] = median(queue) * 1e3
	daemonLayers(p.layer, d, tr, len(sessS))
	return p, nil
}

// simSession drives one session through the API and checks its output.
// It returns the create-to-persisted time, the queue wait, the
// experiments counted and whether the session completed.
func simSession(cl *client, d *daemon, slots int64, ref simRef, tr *tracer, ops *tally) (float64, float64, int64, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	root := tr.id()
	t0 := time.Now()
	var v fleet.View
	if err := cl.call("fleet.create", "", root, "POST", "/v1/sessions",
		fleet.SessionConfig{Scenario: "idle", Slots: slots, Seed: ref.seed}, http.StatusCreated, &v); err != nil {
		return 0, 0, 0, false
	}
	id := v.ID
	d.sink.adopt(id, root)
	defer d.sink.forget(id)
	snap, err := cl.pollDone(ctx, id, root, 100*time.Millisecond)
	if err != nil {
		return 0, 0, 0, false
	}
	at, err := d.sink.waitPersisted(ctx, id)
	if !ops.check(err == nil, "%v", err) {
		return 0, 0, 0, false
	}
	tr.record(root, 0, id, "session", t0, at)
	var final fleet.View
	var hist historyReply
	if cl.call("fleet.get", id, root, "GET", "/v1/sessions/"+id, nil, http.StatusOK, &final) != nil ||
		cl.call("fleet.history", id, root, "GET", "/v1/sessions/"+id+"/history", nil, http.StatusOK, &hist) != nil ||
		cl.call("fleet.delete", id, root, "DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil) != nil {
		return 0, 0, 0, false
	}
	done := ops.check(final.State == fleet.Done, "session %s ended %v: %s", id, final.State, final.Error)

	// The final snapshot must match the direct run bit for bit: the JSON
	// codec writes the shortest exact form of every float, so equal
	// encodings mean equal Float64bits.
	var got estimate.Snapshot
	gotJSON, err := reencode(snap.Snapshot, &got)
	ops.check(err == nil && string(gotJSON) == string(ref.snapJSON),
		"session %s snapshot %s, want %s (%v)", id, gotJSON, ref.snapJSON, err)
	c := final.Counters
	ops.check(c.ProbesSent == ref.counters.ProbesSent && c.Experiments == ref.counters.Experiments &&
		c.Skipped == ref.counters.Skipped,
		"session %s counters %+v, want %+v", id, c, ref.counters)
	ops.check(len(hist.Points) > 0 && pointMatches(hist.Points[len(hist.Points)-1], got.Total, c),
		"session %s: last history point does not match the final snapshot", id)

	queue := 0.0
	if final.Started != nil {
		queue = final.Started.Sub(final.Created).Seconds()
	}
	return at.Sub(t0).Seconds(), queue, c.Experiments, done
}

func reencode(raw json.RawMessage, into *estimate.Snapshot) ([]byte, error) {
	if err := json.Unmarshal(raw, into); err != nil {
		return nil, err
	}
	return json.Marshal(into)
}

func pointMatches(pt store.Point, e badabing.Estimates, c fleet.SessionCounters) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return pt.M == int64(e.M) && same(pt.Frequency, e.Frequency) && same(pt.Duration, e.Duration) &&
		pt.HasDuration == e.HasDuration && pt.ProbesSent == c.ProbesSent && pt.Experiments == c.Experiments
}

// daemonLayers derives the store, fleet and obs metrics from the
// traced run's spans and the store's own counters.
func daemonLayers(layer map[string]float64, d *daemon, tr *tracer, sessions int) {
	if tr == nil {
		return
	}
	appends := tr.durations("store.append")
	layer["store.append_us_p50"] = median(appends) * 1e6
	layer["store.append_us_p99"] = quantile(appends, 0.99) * 1e6
	layer["store.appends_per_session"] = ratio(float64(len(appends)), float64(sessions))
	st := d.sink.Stats()
	layer["store.fsync_ms_mean"] = ratio(st.FsyncSeconds, float64(st.Fsyncs)) * 1e3
	layer["store.history_ms_p50"] = median(tr.durations("store.history")) * 1e3
	creates := tr.durations("fleet.create")
	layer["fleet.create_ms_p50"] = median(creates) * 1e3
	layer["fleet.create_ms_p99"] = quantile(creates, 0.99) * 1e3
	snaps := tr.durations("fleet.snapshot")
	layer["fleet.snapshot_ms_p50"] = median(snaps) * 1e3
	layer["fleet.snapshot_ms_p99"] = quantile(snaps, 0.99) * 1e3
	scrapes := tr.durations("obs.metrics")
	layer["obs.metrics_ms_p50"] = median(scrapes) * 1e3
	layer["obs.metrics_ms_p99"] = quantile(scrapes, 0.99) * 1e3
}
