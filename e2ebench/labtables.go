package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"badabing/internal/badabing"
	"badabing/internal/lab"
	"badabing/internal/probe"
	"badabing/internal/runner"
)

// labRefPath holds the per-seed reference rows the lab-tables output
// check compares against, keyed by horizon and lab seed.
const labRefPath = "e2ebench/testdata/lab_ref.json"

// labSeeds is how many distinct lab seeds the workload cycles through,
// each with kept reference rows. The cost of a table set depends on its
// seed (how many loss episodes land inside the horizon), so every run
// covers whole cycles of all of them: the k-th table set of a cycle in a
// run with --seed n runs lab seed labSeedFor(n+k).
const labSeeds = 16

func labSeedFor(seed int64) int64 { return 1 + ((seed%labSeeds)+labSeeds)%labSeeds }

// labRows is one table set's output as exact float bit patterns (hex),
// one slice per row, so the reference compares Float64bits-equal and
// survives NaN.
type labRows map[string][][]string

func bitsOf(xs ...float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatUint(math.Float64bits(x), 16)
	}
	return out
}

// runTableSet runs Tables 1, 4 and 6 with their 12 cells sharing pool.
func runTableSet(pool *runner.Pool, horizon time.Duration, seed int64) labRows {
	cfg := lab.RunConfig{Horizon: horizon, Seed: seed, Pool: pool, Ctx: context.Background()}
	var t1 lab.LossTable
	var t4, t6 lab.SweepTable
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); t1 = lab.Table1(cfg) }()
	go func() { defer wg.Done(); t4 = lab.Table4(cfg) }()
	go func() { defer wg.Done(); t6 = lab.Table6(cfg) }()
	wg.Wait()
	rows := labRows{}
	for _, r := range t1.Rows {
		rows["table1"] = append(rows["table1"], bitsOf(r.Frequency, r.DurMean, r.DurSD))
	}
	for name, t := range map[string]lab.SweepTable{"table4": t4, "table6": t6} {
		for _, r := range t.Rows {
			rows[name] = append(rows[name], bitsOf(r.P, r.TrueF, r.EstF, r.TrueD, r.EstD))
		}
	}
	return rows
}

// labRef is the reference file: horizon -> lab seed -> rows.
type labRef map[string]map[string]labRows

func loadLabRef(path string) (labRef, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lab reference: %w", err)
	}
	var ref labRef
	if err := json.Unmarshal(buf, &ref); err != nil {
		return nil, fmt.Errorf("lab reference %s: %w", path, err)
	}
	return ref, nil
}

// writeLabRef regenerates the reference file for both horizons and
// every lab seed.
func writeLabRef(path string) error {
	pool := runner.New(runner.Config{})
	ref := labRef{}
	for _, h := range []time.Duration{labHorizon(false), labHorizon(true)} {
		ref[h.String()] = map[string]labRows{}
		for s := int64(1); s <= labSeeds; s++ {
			ref[h.String()][strconv.FormatInt(s, 10)] = runTableSet(pool, h, s)
		}
	}
	buf, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// labScenarios are the cross-traffic scenarios Tables 1, 4 and 6 run on.
var labScenarios = []lab.Scenario{lab.InfiniteTCP, lab.CBRUniform, lab.Web}

// labHorizon is short enough that a cycle over every lab seed takes a
// few seconds, so a run's median is over several whole cycles.
func labHorizon(short bool) time.Duration {
	if short {
		return 2 * time.Second
	}
	return 3 * time.Second
}

// labExperiments is how many BADABING experiments one table set's ten
// sweep cells evaluate: every scheduled experiment is assembled on a
// simulated path, where no probe is ever invalid. The program reports
// no such count, so it comes from the schedules; every row that depends
// on it is checked bit for bit, so a table set that evaluated a
// different number would fail its check.
func labExperiments(horizon time.Duration, seed int64) int {
	n := 0
	for _, p := range lab.DefaultPSweep {
		n += len(badabing.MustSchedule(badabing.ScheduleConfig{
			P: p, N: int64(horizon / badabing.DefaultSlot), Seed: seed + 100,
		}))
	}
	return 2 * n // Tables 4 and 6 run the same schedules
}

type labInput struct {
	horizon   time.Duration
	want      map[string]labRows // by lab seed
	cycleExps int                // experiments in one cycle over every lab seed
}

func prepareLab(o *options, tr *tracer, layer map[string]float64) (*labInput, error) {
	in := &labInput{horizon: labHorizon(o.short)}
	ref, err := loadLabRef(o.labRef)
	if err != nil {
		return nil, err
	}
	in.want = ref[in.horizon.String()]
	for s := int64(1); s <= labSeeds; s++ {
		rows := in.want[strconv.FormatInt(s, 10)]
		if rows == nil {
			return nil, fmt.Errorf("lab reference has no rows for horizon %v seed %d", in.horizon, s)
		}
		in.cycleExps += labExperiments(in.horizon, s)
		if o.tamper {
			rows["table4"][0][2] = strconv.FormatUint(math.Float64bits(0.5), 16)
		}
	}
	if tr != nil {
		simnetCells(in.horizon, labSeedFor(o.seed), tr, layer)
	}
	return in, nil
}

// simnetCells runs one cell per lab scenario directly on lab.NewPath,
// timing simnet.Sim.Run inside it, and derives the simulator's
// packets per second, allocations per packet and share of cell time.
func simnetCells(horizon time.Duration, seed int64, tr *tracer, layer map[string]float64) {
	slot := badabing.DefaultSlot
	var runSec, cellSec, arrivals, mallocs float64
	for _, sc := range labScenarios {
		id := tr.id()
		t0 := time.Now()
		cfg := lab.RunConfig{Horizon: horizon, Seed: seed}
		path := lab.NewPath(sc, cfg)
		var report func()
		if sc == lab.InfiniteTCP {
			z := probe.StartZing(path.Sim, path.D, 7, probe.ZingConfig{
				Mean: 100 * time.Millisecond, PacketSize: 256, Horizon: horizon, Seed: seed})
			report = func() { z.Report() }
		} else {
			const p = 0.5
			bb := probe.StartBadabing(path.Sim, path.D, 7, probe.BadabingConfig{
				Plans: badabing.MustSchedule(badabing.ScheduleConfig{
					P: p, N: int64(horizon / slot), Seed: seed + 100}),
				Slot:   slot,
				Marker: badabing.RecommendedMarker(p, slot),
			})
			report = func() { bb.Report() }
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r0 := time.Now()
		path.Run(horizon)
		r1 := time.Now()
		runtime.ReadMemStats(&m1)
		path.Mon.Truth(horizon, slot)
		report()
		t1 := time.Now()
		arrived, _, _ := path.D.Bottleneck.Stats()
		tr.record(0, id, sc.String(), "simnet.Sim.Run", r0, r1)
		tr.record(id, 0, sc.String(), "lab.cell", t0, t1)
		runSec += r1.Sub(r0).Seconds()
		cellSec += t1.Sub(t0).Seconds()
		arrivals += float64(arrived)
		mallocs += float64(m1.Mallocs - m0.Mallocs)
	}
	layer["simnet.pkts_per_s"] = ratio(arrivals, runSec)
	layer["simnet.allocs_per_pkt"] = ratio(mallocs, arrivals)
	layer["simnet.cell_share"] = ratio(runSec, cellSec)
}

// runLab runs cycles of the table set over every lab seed on one pool
// until the window closes (at least one cycle), and checks every row
// against the reference. Per-unit figures are a cycle's mean per table
// set, and the metrics are their medians over the cycles.
func runLab(o *options, in *labInput, tr *tracer) (*pass, error) {
	p := newPass()
	workers := runtime.NumCPU()
	var mu sync.Mutex
	var cells []float64
	var work time.Duration
	onResult := func(r runner.Result) {
		p.ops.check(r.Err == nil, "cell %s: %v", r.Key, r.Err)
		end := time.Now()
		tr.record(0, 0, r.Key, "runner.cell", end.Add(-r.Elapsed), end)
		mu.Lock()
		cells = append(cells, r.Elapsed.Seconds())
		work += r.Elapsed
		mu.Unlock()
	}

	// Set-up builds a pool and runs one job on it that builds each
	// scenario's testbed (topology, monitor and cross-traffic sources)
	// without simulating. The load runs on a pool built the same way.
	runtime.GC()
	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		t0 := time.Now()
		var warm []runner.Cell
		for _, sc := range labScenarios {
			warm = append(warm, runner.Cell{Key: "setup/" + sc.String(), Run: func(context.Context, int64) (any, error) {
				return lab.NewPath(sc, lab.RunConfig{Horizon: in.horizon, Seed: labSeedFor(o.seed)}), nil
			}})
		}
		runner.New(runner.Config{Workers: workers}).Run(context.Background(), warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.e2e["setup_s"] = median(setups)
	pool := runner.New(runner.Config{Workers: workers, OnResult: onResult})

	var walls, cpus, useful []float64
	gc0 := readGCClock()
	start := time.Now()
	got := make([]labRows, labSeeds)
	for len(walls) == 0 || time.Since(start) < o.seconds {
		c0 := cpuSeconds()
		t0 := time.Now()
		for k := range got {
			got[k] = runTableSet(pool, in.horizon, labSeedFor(o.seed+int64(k)))
		}
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		walls = append(walls, wall/labSeeds)
		cpus = append(cpus, cpu/labSeeds)
		useful = append(useful, ratio(float64(in.cycleExps), cpu))
		for k, rows := range got {
			checkRows(&p.ops, rows, in.want[strconv.FormatInt(labSeedFor(o.seed+int64(k)), 10)])
		}
	}
	wall := time.Since(start)
	p.walls = walls
	p.e2e["wall_s_p50"] = median(walls)
	p.e2e["cpu_s_per_unit"] = median(cpus)
	p.e2e["useful_exp_per_cpu_s"] = median(useful)
	p.report["lab_wall_s"] = median(walls)
	p.report["lab_cpu_s"] = median(cpus)
	p.layer["runner.cell_s_p50"] = median(cells)
	p.layer["runner.cell_s_max"] = quantile(cells, 1)
	p.layer["runner.busy_frac"] = ratio(work.Seconds(), wall.Seconds()*float64(workers))
	p.layer["proc.gc_cpu_frac"] = readGCClock().fracSince(gc0)
	return p, nil
}

// checkRows counts one operation per reference row, failed unless the
// row matches bit for bit.
func checkRows(ops *tally, got, want labRows) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, w := range want[name] {
			ok := i < len(got[name]) && slices.Equal(got[name][i], w)
			ops.check(ok, "%s row %d: got %v, want %v", name, i, rowAt(got[name], i), w)
		}
		ops.check(len(got[name]) == len(want[name]), "%s: %d rows, want %d", name, len(got[name]), len(want[name]))
	}
}

func rowAt(rows [][]string, i int) []string {
	if i < len(rows) {
		return rows[i]
	}
	return nil
}
