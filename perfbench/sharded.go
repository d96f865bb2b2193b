package main

import (
	"fmt"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/u256"
	"scmove/internal/universe"
	"scmove/internal/workload"
)

// sharded_16: workload.RunShardedScaling on 16 laned chains with the
// migration policy on, in the package's default configuration. The call is
// repeated a fixed number of times, one per shardedRunSeconds of the
// measured window and at least twice, so the determinism check has two
// fingerprints to compare.
const (
	shardedChains     = 16
	shardedRunSeconds = 5
)

func shardedConfig(p params) workload.ShardedScalingConfig {
	cfg := workload.DefaultShardedScalingConfig(shardedChains, true)
	cfg.Seed = p.Seed
	if p.Small {
		cfg.Chains = 4
		cfg.Users = 200
		cfg.ActiveUsers = 0 // package default: 4 per chain
		cfg.Contracts = 0   // package default: 2 per chain
		cfg.Warmup = time.Minute
		cfg.Duration = 2 * time.Minute
	}
	return cfg
}

// shardedUniverseConfig rebuilds the universe configuration
// RunShardedScaling builds inside its timed call, so set-up can be timed on
// its own.
func shardedUniverseConfig(cfg workload.ShardedScalingConfig) universe.Config {
	ucfg := universe.ShardedScaleConfig(cfg.Chains, cfg.Validators, cfg.Users)
	active, contracts := cfg.ActiveUsers, cfg.Contracts
	if active <= 0 {
		active = 4 * cfg.Chains
	}
	if contracts <= 0 {
		contracts = 2 * cfg.Chains
	}
	ucfg.Clients = contracts
	drivers := make([]hashing.Address, active)
	for i := range drivers {
		drivers[i] = universe.UserKey(i).Address()
	}
	ucfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		for _, a := range drivers {
			db.AddBalance(a, u256.FromUint64(1<<50))
		}
	}
	ucfg.ParallelTick = cfg.ParallelTick
	ucfg.TickWorkers = cfg.TickWorkers
	for i := range ucfg.Specs {
		ucfg.Specs[i].Config.MaxBlockTxs = cfg.ShardCapacity
	}
	return ucfg
}

func runSharded16(p params, traced bool) (*report, error) {
	cfg := shardedConfig(p)
	ucfg := shardedUniverseConfig(cfg)
	u, setup, err := medianSetup(func(int) (*universe.Universe, error) { return universe.New(ucfg) },
		(*universe.Universe).Close)
	if err != nil {
		return nil, err
	}
	if err := u.Close(); err != nil {
		return nil, err
	}
	r := &report{setup: setup}

	m, err := startMeter(traced)
	if err != nil {
		return nil, err
	}
	n := max(2, int(p.Window.Seconds())/shardedRunSeconds)
	var runs []*workload.ShardedScalingResult
	var walls []float64
	for len(runs) < n {
		t0 := time.Now()
		res, err := workload.RunShardedScaling(cfg)
		if err != nil {
			_, _, _ = m.end()
			return nil, err
		}
		walls = append(walls, ms(time.Since(t0)))
		runs = append(runs, res)
	}
	mem, cpu, err := m.end()
	if err != nil {
		return nil, err
	}

	// Outputs: moves completed, every contract spread to its own chain,
	// and the same fingerprint from every run.
	var rates []float64
	var committed float64
	for i, res := range runs {
		r.attempted += int64(res.Moves.Issued)
		r.failed += int64(res.Moves.Failed)
		committed += float64(res.Committed)
		rates = append(rates, float64(res.Committed)/(walls[i]/1e3))
		ok := res.Moves.Completed > 0 && res.FinalSpread == cfg.Chains &&
			res.Fingerprint == runs[0].Fingerprint
		if !ok {
			fmt.Printf("sharded_16: run %d: moves %d/%d/%d spread %d fingerprint-match %v\n", i,
				res.Moves.Issued, res.Moves.Completed, res.Moves.Failed, res.FinalSpread,
				res.Fingerprint == runs[0].Fingerprint)
			r.failed++
		}
	}
	first := runs[0]
	r.ops = committed
	r.opsPerS = quantile(rates, 0.5)
	r.p50, r.p99 = quantile(walls, 0.5), quantile(walls, 0.99)
	r.mem, r.cpuNs = mem, cpu
	r.headline = r.opsPerS
	var blocks float64
	for _, h := range first.PerChain {
		blocks += float64(h)
	}
	r.add("calls_per_s", r.opsPerS, "calls/s")
	r.add("sim_tx_s", first.Throughput, "tx/s")
	r.add("run_wall_p50_ms", r.p50, "ms")
	r.add("runs", float64(len(runs)), "count")
	r.layers = map[string]float64{
		"shard.moves":        float64(first.Moves.Completed),
		"shard.moves_failed": float64(first.Moves.Failed),
		"chain.blocks":       blocks,
		"sim_tx_s":           first.Throughput,
	}
	return r, nil
}
