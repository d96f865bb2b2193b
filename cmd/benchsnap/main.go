// Command benchsnap measures the performance-critical paths of the
// simulator — trie ops, hashing, the EVM interpreter loop, the Kitties
// replay, and the parallel Fig. 6 grid — and writes the results as a JSON
// snapshot (BENCH_<n>.json by default, picking the next free index).
//
// Snapshots are the repository's performance baseline: compare two of them
// with cmd/benchdiff, which fails on regressions beyond a threshold.
//
// Usage:
//
//	benchsnap [-quick] [-repeat n] [-out file.json]
//
// -quick cuts iteration counts ~10x for smoke tests; its numbers are
// noisier and should not be committed as baselines. -repeat runs the whole
// cell list n times and keeps per-cell medians — use it for committed
// baselines on hosts whose wall-clock is noisy run to run.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"scmove/internal/bench"
	"scmove/internal/chain"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/mpt"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/workload"
)

// Result is one measured benchmark.
type Result struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the file format consumed by cmd/benchdiff.
type Snapshot struct {
	Created    string   `json:"created"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	quick := flag.Bool("quick", false, "cut iterations ~10x (smoke runs, not baselines)")
	out := flag.String("out", "", "output path (default: next free BENCH_<n>.json)")
	repeat := flag.Int("repeat", 1, "run the whole cell list N times and keep per-cell medians (tames scheduler/GC noise on small cells)")
	flag.Parse()

	snap := Snapshot{
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	div := 1
	if *quick {
		div = 10
	}
	if *repeat < 1 {
		*repeat = 1
	}
	// With -repeat, every pass runs the full list in order (not N passes of
	// one cell back to back), so slow drift in host load spreads across all
	// cells evenly instead of biasing whichever cell ran last.
	passes := make([][]Result, 0, *repeat)
	for p := 0; p < *repeat; p++ {
		var results []Result
		for _, b := range benchmarks() {
			iters := b.iters / div
			if iters < 1 {
				iters = 1
			}
			res, err := b.run(iters)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", b.name, err)
				os.Exit(1)
			}
			res.Name = b.name
			results = append(results, res)
			fmt.Printf("%-24s %10d iters  %12.0f ns/op  %10.0f B/op  %8.1f allocs/op\n",
				res.Name, res.Iters, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
		passes = append(passes, results)
	}
	snap.Results = medianResults(passes)

	path := *out
	if path == "" {
		path = nextSnapshotPath()
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

// medianResults folds N same-order passes into one result list, taking the
// per-cell median of every scalar (and of every extra field). Medians of
// independent passes resist the one-off GC or timeslicing hiccup a single
// pass can catch on a loaded host.
func medianResults(passes [][]Result) []Result {
	if len(passes) == 1 {
		return passes[0]
	}
	med := func(vals []float64) float64 {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			return vals[n/2]
		}
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	out := make([]Result, len(passes[0]))
	for i := range out {
		out[i] = passes[0][i]
		var ns, by, al []float64
		for _, pass := range passes {
			ns = append(ns, pass[i].NsPerOp)
			by = append(by, pass[i].BytesPerOp)
			al = append(al, pass[i].AllocsPerOp)
		}
		out[i].NsPerOp, out[i].BytesPerOp, out[i].AllocsPerOp = med(ns), med(by), med(al)
		if len(passes[0][i].Extra) > 0 {
			ex := make(map[string]float64, len(passes[0][i].Extra))
			for k := range passes[0][i].Extra {
				var vals []float64
				for _, pass := range passes {
					vals = append(vals, pass[i].Extra[k])
				}
				ex[k] = med(vals)
			}
			out[i].Extra = ex
		}
	}
	return out
}

// nextSnapshotPath returns BENCH_<n>.json for the first free n.
func nextSnapshotPath() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

type benchmark struct {
	name  string
	iters int
	run   func(iters int) (Result, error)
}

// measure times iters repetitions of op, collecting allocation deltas from
// the runtime. A GC fence before sampling keeps concurrent sweep noise out
// of the byte counts.
func measure(iters int, op func() error) (Result, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return Result{
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
	}, nil
}

func benchmarks() []benchmark {
	return []benchmark{
		{name: "hashing_sum_512B", iters: 1_000_000, run: runHashingSum},
		{name: "mpt_get", iters: 1_000_000, run: runMptGet},
		{name: "mpt_set_overwrite", iters: 500_000, run: runMptSet},
		{name: "evm_tight_loop", iters: 20_000, run: runEvmLoop},
		{name: "verify_batch_64", iters: 50, run: runVerifyBatch},
		{name: "sender_cache_hit", iters: 500_000, run: runSenderCacheHit},
		{name: "kitties_replay", iters: 5, run: runKitties},
		{name: "fig6_grid_ci", iters: 2, run: runFig6Grid},
		{name: "move_stages", iters: 2, run: runMoveStages},
		{name: "apply_block_disjoint", iters: 60, run: runApplyBlockDisjoint},
		{name: "shard_scaling_4", iters: 1, run: runShardScaling(4)},
		{name: "shard_scaling_16", iters: 1, run: runShardScaling(16)},
		{name: "shard_scaling_64", iters: 1, run: runShardScaling(64)},
		{name: "state_commit_memory", iters: 300, run: runStateCommit(backend.KindMemory)},
		{name: "state_commit_file", iters: 300, run: runStateCommit(backend.KindFile)},
		{name: "state_flat_warm_read", iters: 1_000_000, run: runStateWarmRead},
		{name: "state_cold_read_file", iters: 500, run: runStateColdRead},
	}
}

// benchProcs pins GOMAXPROCS for a parallel leg: min(4, max(2, NumCPU)).
func benchProcs() int {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	if procs < 2 {
		procs = 2
	}
	return procs
}

// runApplyBlockDisjoint measures one 128-transaction block of disjoint
// contract calls from 128 independent senders, executed by the serial
// ApplyBlock loop on a freshly built chain per iteration (chain
// construction is inside the timed region).
func runApplyBlockDisjoint(iters int) (Result, error) {
	cfg := bench.ApplyBlockConfig{Senders: 128, Txs: 128}
	txs, err := bench.BuildApplyBlockTxs(cfg)
	if err != nil {
		return Result{}, err
	}
	return measure(iters, func() error {
		c, err := bench.BuildApplyBlockChain(cfg)
		if err != nil {
			return err
		}
		_, receipts := c.ApplyBlock(txs, 100, chain.ProposerAddress(1, 0))
		for _, rec := range receipts {
			if !rec.Succeeded() {
				return fmt.Errorf("apply_block: tx failed: %s", rec.Err)
			}
		}
		return nil
	})
}

// runMoveStages drives the chaos scenario with the observability registry on
// and records the per-stage Move latency summaries (simulated time, fully
// deterministic) as extra fields. benchdiff -stages gates on them, so a
// change that silently slows Move1 inclusion, the p-block confirmation wait,
// or Move2 commit fails the diff even when wall-clock stays flat.
func runMoveStages(iters int) (Result, error) {
	cfg := bench.DefaultChaosConfig()
	cfg.Metrics = true
	var reg *metrics.Registry
	res, err := measure(iters, func() error {
		out, err := bench.RunChaos(cfg)
		if err != nil {
			return err
		}
		reg = out.Registry
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Extra = make(map[string]float64)
	for name, key := range map[string]string{
		"move1.commit": "move1",
		"p.wait":       "p_wait",
		"move2.commit": "move2",
		"move.total":   "total",
	} {
		h := reg.Histogram(name)
		if h == nil {
			continue
		}
		s := h.Summarize()
		res.Extra[key+"_count"] = float64(s.Count)
		res.Extra[key+"_p50_s"] = s.P50.Seconds()
		res.Extra[key+"_p95_s"] = s.P95.Seconds()
		res.Extra[key+"_max_s"] = s.Max.Seconds()
	}
	return res, nil
}

// runVerifyBatch measures batch ECDSA recovery of 64 signatures through the
// worker pool — the unit of work ApplyBlock fans out per block. On a
// multi-core host ns/op shrinks with GOMAXPROCS; the snapshot records the
// host's parallel verification throughput.
func runVerifyBatch(iters int) (Result, error) {
	const n = 64
	digests := make([]hashing.Hash, n)
	sigs := make([]keys.Signature, n)
	for i := range sigs {
		kp := keys.Deterministic(uint64(i + 1))
		digests[i] = hashing.Sum([]byte{byte(i), byte(i >> 8)})
		sig, err := kp.Sign(digests[i])
		if err != nil {
			return Result{}, err
		}
		sigs[i] = sig
	}
	return measure(iters, func() error {
		_, errs := keys.VerifyBatch(digests, sigs)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// runSenderCacheHit measures Sender on a transaction whose (id, signature)
// is already cached but whose per-object memo is stripped every round — the
// exact path consensus-decoded copies take at apply time.
func runSenderCacheHit(iters int) (Result, error) {
	kp := keys.Deterministic(1)
	tx := &types.Transaction{
		ChainID:  1,
		Kind:     types.TxCall,
		To:       hashing.AddressFromBytes([]byte{0x07}),
		Value:    u256.FromUint64(1),
		GasLimit: 21_000,
		GasPrice: u256.FromUint64(2),
	}
	if err := tx.Sign(kp); err != nil {
		return Result{}, err
	}
	enc := tx.Encode()
	return measure(iters, func() error {
		c, err := types.DecodeTransaction(enc)
		if err != nil {
			return err
		}
		if _, err := c.Sender(); err != nil {
			return err
		}
		return nil
	})
}

func runHashingSum(iters int) (Result, error) {
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i)
	}
	return measure(iters, func() error {
		hashing.Sum(buf)
		return nil
	})
}

func mptTree(entries int) *mpt.Tree {
	tr := mpt.New(32)
	var key [32]byte
	for i := uint64(0); i < uint64(entries); i++ {
		binary.BigEndian.PutUint64(key[:8], i*0x9e3779b97f4a7c15)
		if err := tr.Set(key[:], key[:8]); err != nil {
			panic(err)
		}
	}
	tr.RootHash()
	return tr
}

func runMptGet(iters int) (Result, error) {
	tr := mptTree(4096)
	var key [32]byte
	i := uint64(123)
	binary.BigEndian.PutUint64(key[:8], i*0x9e3779b97f4a7c15)
	return measure(iters, func() error {
		if _, ok := tr.Get(key[:]); !ok {
			return fmt.Errorf("mpt_get: key missing")
		}
		return nil
	})
}

func runMptSet(iters int) (Result, error) {
	tr := mptTree(4096)
	var key [32]byte
	i := uint64(123)
	binary.BigEndian.PutUint64(key[:8], i*0x9e3779b97f4a7c15)
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	return measure(iters, func() error {
		return tr.Set(key[:], val)
	})
}

func runEvmLoop(iters int) (Result, error) {
	code := asm.MustAssemble(`
		PUSH1 0
		PUSH1 100
	@loop:
		JUMPDEST
		DUP1
		ISZERO
		PUSH @done
		JUMPI
		DUP1
		SWAP2
		ADD
		SWAP1
		PUSH1 1
		SWAP1
		SUB
		PUSH @loop
		JUMP
	@done:
		JUMPDEST
		POP
		PUSH1 0
		MSTORE
		PUSH1 32
		PUSH1 0
		RETURN
	`)
	const chainID = hashing.ChainID(1)
	db, err := state.NewDB(chainID, trie.KindMPT)
	if err != nil {
		return Result{}, err
	}
	var origin, contract hashing.Address
	origin[0], contract[0] = 0xee, 0xcc
	db.AddBalance(origin, u256.FromUint64(1_000_000))
	db.CreateContract(contract, code)
	block := evm.BlockContext{ChainID: chainID, Number: 10, Time: 1_000_000, GasLimit: 30_000_000}
	e := evm.New(evm.EthereumSchedule(), db, block, evm.TxContext{Origin: origin}, nil)
	return measure(iters, func() error {
		_, _, err := e.Call(origin, contract, nil, u256.Zero(), 10_000_000)
		return err
	})
}

func runKitties(iters int) (Result, error) {
	cfg := workload.KittiesConfig{
		Shards:           2,
		Users:            32,
		PromoCats:        200,
		Breeds:           400,
		LocalityBias:     0.93,
		OutstandingLimit: 250,
		Seed:             5,
		MaxDuration:      4 * time.Hour,
	}
	var simTPS float64
	res, err := measure(iters, func() error {
		out, err := workload.RunKitties(cfg)
		if err != nil {
			return err
		}
		simTPS = out.Throughput
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Extra = map[string]float64{"sim_tx_s": simTPS}
	return res, nil
}

func runFig6Grid(iters int) (Result, error) {
	return measure(iters, func() error {
		_, err := bench.RunFig6Grid(bench.ScaleCI, []int{1, 2, 4}, []float64{0, 0.10})
		return err
	})
}

// runShardScaling measures one cell of the sharded-universe scaling grid:
// an S-chain universe, every contract deployed on one congested shard, and
// the auto-migration policy engine spreading them to their callers'
// chains. The headline ns/op is the wall cost of the policy-on run; the
// extras carry the simulated steady-state throughput, the policy's
// throughput gain over the frozen-contracts baseline, and the migration
// count/spread.
func runShardScaling(chains int) func(iters int) (Result, error) {
	return func(iters int) (Result, error) {
		var on *workload.ShardedScalingResult
		procs := benchProcs()
		prev := runtime.GOMAXPROCS(procs)
		res, err := measure(iters, func() error {
			r, err := workload.RunShardedScaling(workload.DefaultShardedScalingConfig(chains, true))
			if err != nil {
				return err
			}
			on = r
			return nil
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return Result{}, err
		}
		off, err := workload.RunShardedScaling(workload.DefaultShardedScalingConfig(chains, false))
		if err != nil {
			return Result{}, err
		}
		res.Extra = map[string]float64{
			"sim_tx_s":    on.Throughput,
			"policy_gain": on.Throughput / off.Throughput,
			"moves":       float64(on.Moves.Completed),
			"spread":      float64(on.FinalSpread),
			"gomaxprocs":  float64(procs),
			"numcpu":      float64(runtime.NumCPU()),
		}
		return res, nil
	}
}

// stateBenchCfg is the shared shape of the state-backend cells: a mid-size
// populated database where an eighth of the accounts are contracts with a
// few storage slots each.
func stateBenchCfg(kind backend.Kind, dir string) bench.StateDBConfig {
	return bench.StateDBConfig{
		Accounts:        4096,
		Contracts:       512,
		SlotsPerAccount: 4,
		BlockAccounts:   1024,
		Options:         state.Options{Backend: kind, Dir: dir},
	}
}

func stateSlotKey(s int) [32]byte {
	var key [32]byte
	binary.BigEndian.PutUint64(key[24:], uint64(s))
	return key
}

// runStateCommit measures one update block — 256 balance touches plus
// storage overwrites — flushed through Commit, per backend. The file leg
// includes the segment append (and any compaction it earns).
func runStateCommit(kind backend.Kind) func(iters int) (Result, error) {
	return func(iters int) (Result, error) {
		var dir string
		if kind == backend.KindFile {
			d, err := os.MkdirTemp("", "benchsnap-state-*")
			if err != nil {
				return Result{}, err
			}
			defer os.RemoveAll(d)
			dir = d
		}
		cfg := stateBenchCfg(kind, dir)
		db, err := bench.BuildStateDB(cfg)
		if err != nil {
			return Result{}, err
		}
		defer db.Close()
		round := 0
		return measure(iters, func() error {
			round++
			if root := bench.MutateStateBlock(db, cfg, round, 256); root == (hashing.Hash{}) {
				return fmt.Errorf("state_commit: zero root")
			}
			return nil
		})
	}
}

// runStateWarmRead measures the deployed warm-read stack: storage reads
// served by the flat cache, balance reads by the decoded working set. The
// extra field reports the flat cache's hit rate over the run.
func runStateWarmRead(iters int) (Result, error) {
	cfg := stateBenchCfg(backend.KindMemory, "")
	db, err := bench.BuildStateDB(cfg)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()
	const hot = 256
	addrs := make([]hashing.Address, hot)
	key := stateSlotKey(1)
	for i := range addrs {
		addrs[i] = bench.StateBenchAddr(i)
		db.GetBalance(addrs[i])
		db.GetStorage(addrs[i], key)
	}
	h0, m0 := db.FlatCacheStats()
	i := 0
	res, err := measure(iters, func() error {
		a := addrs[i%hot]
		i++
		if db.GetStorage(a, key) == ([32]byte{}) {
			return fmt.Errorf("state_warm_read: empty slot")
		}
		if db.GetBalance(a).IsZero() {
			return fmt.Errorf("state_warm_read: empty balance")
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	h1, m1 := db.FlatCacheStats()
	total := float64(h1 - h0 + m1 - m0)
	if total > 0 {
		res.Extra = map[string]float64{"flat_hit_rate": float64(h1-h0) / total}
	}
	return res, nil
}

// runStateColdRead measures reads with every cache dropped on the file
// backend with a minimal resident-tree budget: account records come off the
// in-memory tree, storage slots off the segment files via one ReadAt each.
func runStateColdRead(iters int) (Result, error) {
	dir, err := os.MkdirTemp("", "benchsnap-state-*")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	cfg := stateBenchCfg(backend.KindFile, dir)
	cfg.Options.StorageTreeLimit = 1
	db, err := bench.BuildStateDB(cfg)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()
	key := stateSlotKey(1)
	i := 0
	return measure(iters, func() error {
		db.DropCaches()
		for j := 0; j < 64; j++ {
			a := bench.StateBenchAddr((i + j) % cfg.Contracts)
			if _, ok := db.GetAccount(a); !ok {
				return fmt.Errorf("state_cold_read: missing account")
			}
			if db.GetStorage(a, key) == ([32]byte{}) {
				return fmt.Errorf("state_cold_read: empty slot")
			}
		}
		i += 64
		return nil
	})
}
