package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload once, traced, for a one-second window on a
// shrunken warm-up and history, and requires every check of the harness to
// pass: each input verified exactly once at the sink, error queues empty,
// every end-to-end metric positive, every per-layer metric reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		small := *w
		small.warmup = 40
		if small.customers > 0 {
			small.customers = 50
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := runWorkload(&small, 7, 1, true, filepath.Join(dir, "data"), filepath.Join(dir, "out"))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("run is not correct: %d of %d failed: %s", rep.Failed, rep.Attempted, rep.Detail)
			}
			for _, m := range perLayer {
				if _, ok := rep.PerLayer[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if share := rep.PerLayer["trace.accounted_share"].Value; share < 0.9 {
				t.Errorf("spans account for %.2f of the end-to-end time, want at least 0.9", share)
			}
			if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.name+".jsonl")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables of the harness.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or the why lines differ)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why line has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: bounds differ", kind, m.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"input", "", 0, 100},
		{"client.send", "input", 0, 30},
		{"gateway.admit_handler", "client.send", 5, 25},
		{"engine.pipeline_gap", "input", 25, 80},
		{"gateway.out_send", "input", 80, 90},
		{"sink.recv", "gateway.out_send", 85, 100},
	}
	want := map[string]int64{"input": 10, "client.send": 10, "gateway.admit_handler": 20,
		"engine.pipeline_gap": 55, "gateway.out_send": 5, "sink.recv": 15}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}
