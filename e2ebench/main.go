// Command e2ebench is the repository benchmark. It drives the system
// through its public entry points — lab tables on a runner.Pool, and an
// in-process daemon (store → fleet registry → HTTP API, plus a wire
// reflector) over loopback — and prints one JSON result line. See
// README.md for the workloads, the metrics and how to run it.
//
//	bash e2ebench/run.sh --workload sim-long --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	short     bool // self-test sizes
	tamper    bool // corrupt the reference, so every output check must fail
	rev       string
	clients   int    // client connections and CPU-bound sessions: the CPU count
	setupReps int    // set-ups timed for setup_s
	work      string // scratch directory inside the checkout
	labRef    string
}

// pass is one run of a workload, traced or not.
type pass struct {
	walls  []float64 // wall seconds of each table set or session
	e2e    map[string]float64
	report map[string]float64 // the same figures under workload-specific names
	layer  map[string]float64
	ops    tally
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, report: map[string]float64{}, layer: map[string]float64{}}
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with tracing off. The unit
// of work is one table set on lab-tables and one session elsewhere.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s_p50", "s"},
	{"cpu_s_per_unit", "s"},
	{"useful_exp_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every workload's traced run; a layer the
// workload does not reach reports 0.
var layerMetrics = []metricDef{
	{"simnet.pkts_per_s", "1/s"},
	{"simnet.allocs_per_pkt", "count"},
	{"simnet.cell_share", "frac"},
	{"simnet.advance_share", "frac"},
	{"runner.cell_s_p50", "s"},
	{"runner.cell_s_max", "s"},
	{"runner.busy_frac", "frac"},
	{"session.step_ms_first", "ms"},
	{"session.step_ms_last", "ms"},
	{"session.step_growth", "ratio"},
	{"session.advance_share", "frac"},
	{"session.observations_share", "frac"},
	{"session.harvest_share", "frac"},
	{"session.accounted_frac", "frac"},
	{"badabing.mark_ns_per_obs", "ns"},
	{"estimate.observe_ns", "ns"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p99", "us"},
	{"store.appends_per_session", "count"},
	{"store.fsync_ms_mean", "ms"},
	{"store.history_ms_p50", "ms"},
	{"fleet.create_ms_p50", "ms"},
	{"fleet.create_ms_p99", "ms"},
	{"fleet.queue_wait_ms_p50", "ms"},
	{"fleet.snapshot_ms_p50", "ms"},
	{"fleet.snapshot_ms_p99", "ms"},
	{"obs.metrics_ms_p50", "ms"},
	{"obs.metrics_ms_p99", "ms"},
	{"wire.invalid_frac", "frac"},
	{"wire.pacing_late_us_p99", "us"},
	{"wire.reflector_pps", "1/s"},
	{"wire.cpu_ms_per_probe", "ms"},
	{"proc.gc_cpu_frac", "frac"},
	{"load.gen_late_ms_p99", "ms"},
	{"trace.overhead_frac", "frac"},
}

// workload prepares its inputs and expected outputs outside the timed
// window (traced when tr is set, filling layer), then runs one pass.
type workload struct {
	name    string
	prepare func(o *options, tr *tracer, layer map[string]float64) (any, error)
	run     func(o *options, in any, tr *tracer) (*pass, error)
}

// adapt erases a workload's input type.
func adapt[T any](name string, prep func(*options, *tracer, map[string]float64) (T, error), run func(*options, T, *tracer) (*pass, error)) workload {
	return workload{
		name:    name,
		prepare: func(o *options, tr *tracer, l map[string]float64) (any, error) { return prep(o, tr, l) },
		run:     func(o *options, in any, tr *tracer) (*pass, error) { return run(o, in.(T), tr) },
	}
}

func noInput(*options, *tracer, map[string]float64) (*struct{}, error) { return nil, nil }

var workloads = []workload{
	adapt("lab-tables", prepareLab, runLab),
	adapt("sim-long", prepareSimLong, runSimLong),
	adapt("wire-loopback", noInput, runWire),
}

// deriveSeed gives the k-th generated input of a workload its own seed:
// an FNV-1a hash of the workload name, the run seed and k, never zero.
func deriveSeed(seed int64, name string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, k)
	s := int64(h.Sum64() >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// outcome is the result line: exactly these four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload once untraced, and with tracing also once
// traced, and assembles the result; the report goes to w.
func execute(o *options, w io.Writer) (*outcome, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	stamp := map[string]string{
		"workload": o.workload, "seed": fmt.Sprint(o.seed), "rev": o.rev,
		"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "seconds": o.seconds.String(), "trace": fmt.Sprint(o.trace),
	}
	fmt.Fprintf(w, "stamp: %s\n", stampLine(stamp))

	var tr *tracer
	layer := map[string]float64{}
	if o.trace {
		tr = newTracer()
	}
	in, err := wl.prepare(o, tr, layer)
	if err != nil {
		return nil, err
	}
	plain, err := wl.run(o, in, nil)
	if err != nil {
		return nil, err
	}
	plain.e2e["peak_rss_mb"] = peakRSSMB()
	printPass(w, "untraced", plain)
	res := &outcome{
		Attempted: plain.ops.attempted.Load(),
		Failed:    plain.ops.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if !o.trace {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{plain.e2e[m.name], m.unit}
		}
	} else {
		traced, err := wl.run(o, in, tr)
		if err != nil {
			return nil, err
		}
		traced.e2e["peak_rss_mb"] = peakRSSMB()
		printPass(w, "traced", traced)
		for k, v := range traced.layer {
			layer[k] = v
		}
		// CPU rather than wall time: on wire-loopback the pacing clock
		// fixes the wall time, whatever tracing costs.
		layer["trace.overhead_frac"] = ratio(traced.e2e["cpu_s_per_unit"], plain.e2e["cpu_s_per_unit"]) - 1
		res.Attempted += traced.ops.attempted.Load()
		res.Failed += traced.ops.failed.Load()
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
			fmt.Fprintf(w, "layer  %-28s %14.6g %s\n", m.name, layer[m.name], m.unit)
		}
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(path, stamp); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", tr.len(), path)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "fail_frac: %d/%d = %.4g\n", res.Failed, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

func stampLine(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, " ")
}

func printPass(w io.Writer, label string, p *pass) {
	fmt.Fprintf(w, "%s pass: %d units (wall s min %.4g, p50 %.4g, max %.4g), %d/%d operations failed\n",
		label, len(p.walls), quantile(p.walls, 0), median(p.walls), quantile(p.walls, 1),
		p.ops.failed.Load(), p.ops.attempted.Load())
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "e2e    %-28s %14.6g %s\n", m.name, p.e2e[m.name], m.unit)
	}
	names := make([]string, 0, len(p.report))
	for k := range p.report {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "e2e    %-28s %14.6g\n", k, p.report[k])
	}
	for _, n := range p.ops.failNotes() {
		fmt.Fprintf(w, "FAIL   %s\n", n)
	}
}

func main() {
	o := &options{}
	var secs int
	var traceFlag int
	var writeRef bool
	flag.StringVar(&o.workload, "workload", "", "lab-tables, sim-long or wire-loopback")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the only source of randomness")
	flag.IntVar(&secs, "seconds", 15, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced run and report per-layer metrics")
	flag.StringVar(&o.rev, "rev", "unknown", "git revision of the measured tree")
	flag.StringVar(&o.work, "work", ".bench_build/run", "scratch directory")
	flag.BoolVar(&writeRef, "write-lab-ref", false, "regenerate the lab-tables reference rows and exit")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traceFlag != 0
	o.clients = runtime.NumCPU()
	o.setupReps = 101
	o.labRef = labRefPath
	if err := mainErr(o, writeRef); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(o *options, writeRef bool) error {
	if _, err := os.Stat(filepath.Join("internal", "fleet")); err != nil {
		return errors.New("run from the root of a badabing checkout")
	}
	if writeRef {
		return writeLabRef(o.labRef)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	res, err := execute(o, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
