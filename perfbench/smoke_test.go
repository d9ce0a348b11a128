package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// tinySizes shrinks every workload so a run takes about a second.
var tinySizes = map[string]sizes{
	"stream": {
		Clients: 2, Setups: 2,
		FileBytes: 256 << 10, BlockBytes: 64 << 10, Replicas: 2,
		Window: 2, ReadsPerWrite: 3, MemBytes: 16 << 20,
	},
	"namespace": {Clients: 2, Setups: 2, Files: 200, Dirs: 8},
	"tiered": {
		Clients: 2, Setups: 2,
		FileBytes: 64 << 10, BlockBytes: 64 << 10, Replicas: 2,
		Slots: 8, ZipfS: 1.2, Rotations: 1, WriteEvery: 5,
		ThrottleScale: 0.5,
		MemBytes:      1 << 20, SSDBytes: 2 << 20, HDDBytes: 24 << 20,
	},
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesCatalogue(t *testing.T) {
	spec := loadSpec(t)
	cat := catalogue()
	if len(spec.PerLayer) != len(cat) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(cat))
	}
	for i, d := range cat {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue has %s %s %s", i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := defaultSizes[w.Name]; !ok {
			t.Errorf("workload %s has no sizes", w.Name)
		}
	}
}

// workloadNames lists every workload, including any BENCHMARK.json
// leaves out, in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(starters))
	for name := range starters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at tiny scale, untraced and traced,
// and checks that each metric BENCHMARK.json names is emitted, finite
// and in its unit, and that the run's own checks pass.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := run(name, tinySizes[name], 7, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Problems)
			}
			if res.Failed != 0 {
				// Failed ops are counted, not checked: at this scale the
				// tiered SSDs fill and a write can exhaust its retries.
				t.Logf("%s traced=%v: %d of %d ops failed: %q", name, traced, res.Failed, res.Attempted, res.Report)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCheckRejectsWrongExpectation makes each workload expect the
// wrong thing and checks that the run is reported incorrect.
func TestCheckRejectsWrongExpectation(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for name, sz := range tinySizes {
		sz.Setups = 1
		sz.corruptExpected = true
		res, err := run(name, sz, 7, 500*time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || len(res.Problems) == 0 {
			t.Errorf("%s: a wrong expectation passed the correctness check", name)
		}
	}
}
