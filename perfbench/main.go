// Command perfbench is the repository benchmark. It runs one of three
// workloads through the system's public packages, times the calls itself,
// checks the outputs, and prints the metrics as a human-readable table
// followed by one JSON result line:
//
//	go run . --workload rpc_transfers --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - rpc_transfers: pre-signed unit transfers fired open-loop over HTTP at
//     two live Burrow chains (RPC front door, TCP consensus, wall clock).
//   - sharded_16: workload.RunShardedScaling on 16 laned chains with the
//     migration policy on (discrete-event engine at scale).
//   - store_moves: 1500-slot Store contracts moved back and forth between two
//     chains on the file state backend with MoveAndWait.
//
// With --trace 0 the JSON metrics are the end-to-end set: setup_s,
// ops_per_s, op_p50_ms, op_p99_ms, allocs_per_op and heap_peak_mb. With
// --trace 1 the run is split in two halves: an untraced half for the
// headline metric, then a traced half under a runtime/pprof CPU profile
// whose samples are charged to layers (see profile.go); the JSON metrics
// are then the per-layer set (see perLayerDefs).
//
// The exit status is non-zero when an output check fails, the workload
// cannot run, or a traced run charges less than minAttributed of its CPU
// samples to a named layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minAttributed is the least share of profiled CPU a traced run must charge
// to a named layer.
const minAttributed = 0.9

// params is what one workload run receives from the command line.
type params struct {
	Seed   int64
	Window time.Duration // measured time
	Dir    string        // directory for file-backed chain state
	Small  bool          // test scale: smaller sharded_16 and store_moves inputs
}

// workloads maps a workload name to its runner. A runner sets up, measures
// for p.Window, checks its outputs, and reports; traced runs add the CPU
// profile and span metrics.
var workloads = map[string]func(p params, traced bool) (*report, error){
	"rpc_transfers": runRPCTransfers,
	"sharded_16":    runSharded16,
	"store_moves":   runStoreMoves,
}

// metric is one named value of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload pass measured.
type report struct {
	setup     time.Duration // median set-up time
	attempted int64
	failed    int64
	ops       float64 // completed operations (per-op denominator)
	opsPerS   float64
	p50, p99  float64 // per-op wall latency, ms
	mem       memResult
	cpuNs     map[string]int64 // traced: profile CPU-ns per layer
	// headline is the metric trace.overhead_pct compares (higher is better
	// unless headlineLower).
	headline      float64
	headlineLower bool
	// table holds the workload's metrics under their own names (commit_tps,
	// move_p50_ms, sim_tx_s, ...), printed before the JSON line.
	table []metricLine
	// layers holds the span and count metrics of the per-layer set.
	layers map[string]float64
}

type metricLine struct {
	name  string
	value float64
	unit  string
}

func (r *report) add(name string, value float64, unit string) {
	r.table = append(r.table, metricLine{name, value, unit})
}

func main() {
	workload := flag.String("workload", "", "rpc_transfers, sharded_16 or store_moves")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "state"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p := params{Seed: *seed, Window: time.Duration(*seconds) * time.Second, Dir: dir}
	res, err := execute(run, p, *trace == 1)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and builds the JSON result. An untraced run
// measures the whole window. A traced run measures half the window
// untraced and half traced, so trace.overhead_pct compares the two.
func execute(run func(params, bool) (*report, error), p params, traced bool) (*result, error) {
	printHost()
	if !traced {
		r, err := run(p, false)
		if err != nil {
			return nil, err
		}
		printTable("end-to-end", r)
		res := endToEnd(r)
		return res, checkFailures(res)
	}
	half := p
	half.Window = p.Window / 2
	base, err := run(half, false)
	if err != nil {
		return nil, err
	}
	printTable("untraced half", base)
	r, err := run(half, true)
	if err != nil {
		return nil, err
	}
	printTable("traced half", r)
	res := perLayer(r, base)
	if err := checkFailures(res); err != nil {
		return res, err
	}
	if frac := res.Metrics["cpu.attributed_frac"].Value; frac < minAttributed {
		return res, fmt.Errorf("only %.3f of CPU samples charged to a named layer, want >= %.2f", frac, minAttributed)
	}
	return res, nil
}

func checkFailures(res *result) error {
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed their checks", res.Failed, res.Attempted)
	}
	return nil
}

// endToEndValues computes the end-to-end metrics of one pass.
func (r *report) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":       r.setup.Seconds(),
		"ops_per_s":     r.opsPerS,
		"op_p50_ms":     r.p50,
		"op_p99_ms":     r.p99,
		"allocs_per_op": float64(r.mem.mallocs) / r.ops,
		"heap_peak_mb":  float64(r.mem.heapPeak) / (1 << 20),
	}
}

// endToEnd builds the untraced result line.
func endToEnd(r *report) *result {
	values := r.endToEndValues()
	m := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		m[d.name] = metric{values[d.name], d.unit}
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// perLayer builds the traced result line from the traced pass r and the
// untraced pass base: CPU per op for every layer, the workload's span and
// count metrics (zero where a workload has no such span), GC pause and the
// tracing overhead.
func perLayer(r, base *report) *result {
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{r.layers[name], unit}
	}
	shares, frac := cpuPerOp(r.cpuNs, r.ops)
	for layer, us := range shares {
		m["cpu."+layer] = metric{us, "us/op"}
	}
	m["cpu.attributed_frac"] = metric{frac, "ratio"}
	m["gc.pause_ms"] = metric{float64(r.mem.pauseNs) / 1e6, "ms"}
	overhead := (base.headline/r.headline - 1) * 100
	if r.headlineLower {
		overhead = (r.headline/base.headline - 1) * 100
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	failed := r.failed + base.failed
	return &result{Correct: failed == 0, Attempted: r.attempted + base.attempted, Failed: failed, Metrics: m}
}

func printHost() {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// printTable prints a pass's metrics under the workload's own names, then
// the shared ones.
func printTable(title string, r *report) {
	fmt.Printf("== %s: %d attempted, %d failed\n", title, r.attempted, r.failed)
	e2e := r.endToEndValues()
	fmt.Printf("  %-24s %14.4f %s\n", "setup_s", e2e["setup_s"], "s")
	for _, l := range r.table {
		fmt.Printf("  %-24s %14.4f %s\n", l.name, l.value, l.unit)
	}
	fmt.Printf("  %-24s %14.4f %s\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	fmt.Printf("  %-24s %14.4f %s\n", "allocs_per_op", e2e["allocs_per_op"], "allocs")
	fmt.Printf("  %-24s %14.4f %s\n", "heap_peak_mb", e2e["heap_peak_mb"], "MB")
	names := make([]string, 0, len(r.layers))
	for name := range r.layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-24s %14.4f %s\n", name, r.layers[name], perLayerUnits[name])
	}
	if r.cpuNs != nil {
		shares, frac := cpuPerOp(r.cpuNs, r.ops)
		layers := make([]string, 0, len(shares))
		for layer := range shares {
			layers = append(layers, layer)
		}
		sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
		for _, layer := range layers {
			if shares[layer] > 0 {
				fmt.Printf("  %-24s %14.4f us/op\n", "cpu."+layer, shares[layer])
			}
		}
		fmt.Printf("  %-24s %14.4f ratio\n", "cpu.attributed_frac", frac)
	}
}
