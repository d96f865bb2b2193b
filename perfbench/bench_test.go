package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmall runs every workload at test scale on a seed the
// committed baseline was not measured with, untraced and traced (untraced
// only under -race), and requires its output checks to pass.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live consensus for several seconds")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			p := params{Seed: 2, Window: 4 * time.Second, Dir: t.TempDir(), Small: true}
			traced := !raceEnabled
			res, err := execute(workloads[name], p, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if !traced {
				return
			}
			if len(res.Metrics) != len(perLayerDefs) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayerDefs))
			}
			if frac := res.Metrics["cpu.attributed_frac"].Value; frac < minAttributed {
				t.Errorf("cpu.attributed_frac %.3f < %.2f", frac, minAttributed)
			}
		})
	}
}

// TestSenderCacheCleared checks that the node, not the generator's
// signing, recovers every transfer's sender.
func TestSenderCacheCleared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live consensus for several seconds")
	}
	p := params{Seed: 3, Window: time.Second, Dir: t.TempDir(), Small: true}
	r, err := runRPCTransfers(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.layers["types.sender_misses_per_tx"]; got < 0.9 {
		t.Fatalf("types.sender_misses_per_tx = %.3f, want ≈ 1", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", got, want)
	}
	for _, name := range names {
		if workloads[name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
