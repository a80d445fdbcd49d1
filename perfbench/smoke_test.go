package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload at smoke-test sizes, untraced and
// traced, through its correctness gates, and checks that each reports
// every metric of its run as a finite number (end-to-end ones nonzero).
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: traced, tiny: true}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			for _, e := range res.gateErrs {
				t.Errorf("%s trace=%v: gate failed: %s", name, traced, e)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, traced, res.attempted, res.failed)
			}
			defs, vals := endToEnd, res.e2e
			if traced {
				defs, vals = perLayer, res.layer
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				if traced && !ok {
					continue // layer not on this workload's path
				}
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
					t.Errorf("%s trace=%v: metric %s = %v (reported %v)", name, traced, d.name, v, ok)
				}
			}
			if traced {
				for _, m := range []string{"ledger.closure", "ledger.gap_s", "trace.overhead"} {
					if _, ok := vals[m]; !ok {
						t.Errorf("%s: traced run reports no %s", name, m)
					}
				}
			}
		}
	}
}

// TestErrorGateFails pins that a wrong potential fails the run.
func TestErrorGateFails(t *testing.T) {
	res := newResult()
	e := errSample{ref: []float64{1, 2, 3}, got: []float64{1, 2, 3.001}}
	e.gate(res, 1e-5)
	if len(res.gateErrs) != 1 {
		t.Fatalf("gate errors = %v, want one", res.gateErrs)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric tables to BENCHMARK.json:
// same names, units and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("metric %d: %s [%s], BENCHMARK.json has %s [%s]", i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
