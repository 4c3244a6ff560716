package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json must list exactly the workloads and metrics this
// program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		p := endToEndMetrics[i]
		if m.Name != p.name || m.Unit != p.unit {
			t.Errorf("end-to-end %d: %s %s vs %s %s", i, m.Name, m.Unit, p.name, p.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		p := layerMetrics[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, p)
		}
	}
}
