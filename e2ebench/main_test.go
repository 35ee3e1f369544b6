package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

func shortOptions(t *testing.T, workload string, trace, tamper bool) *options {
	return &options{
		workload: workload, seed: 7, seconds: time.Second, trace: trace,
		short: true, tamper: tamper, rev: "test", clients: 2, setupReps: 2,
		work: t.TempDir(), labRef: "testdata/lab_ref.json",
	}
}

// TestWorkloadsShort runs every workload at self-test sizes: untraced it
// must pass its output checks and emit every end-to-end metric, traced
// every per-layer metric, and with a tampered reference the mismatch
// must show up as failed operations.
func TestWorkloadsShort(t *testing.T) {
	if !testing.Short() {
		t.Skip("self-test sizes only; run with -short")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range []struct {
				trace bool
				want  []metricDef
			}{{false, e2eMetrics}, {true, layerMetrics}} {
				res, err := execute(shortOptions(t, w.name, tc.trace, false), io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", tc.trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v, %d/%d failed", tc.trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace=%v: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", tc.trace, m.name, got, m.unit)
					}
				}
			}
			if w.name == "wire-loopback" {
				// Its check is against the schedule itself; there is no
				// kept reference to tamper with.
				return
			}
			res, err := execute(shortOptions(t, w.name, false, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("tampered reference: correct=%v, %d/%d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to what the program
// emits: the same workloads, metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}
