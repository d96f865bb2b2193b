package main

// metricDef names one metric of the JSON result line.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the untraced metrics. An operation is one transfer
// (rpc_transfers), one committed simulated call (sharded_16) or one move
// (store_moves); see the workload files for what each latency times.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"allocs_per_op", "allocs", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayerDefs are the traced metrics: CPU per operation for every layer,
// then the span and count metrics. A workload reports 0 for a span it does
// not have.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, layer := range layers {
		defs = append(defs, metricDef{"cpu." + layer, "us/op", "lower"})
	}
	return append(defs,
		metricDef{"cpu.attributed_frac", "ratio", "higher"},
		// rpc_transfers
		metricDef{"rpc.roundtrip_p50_us", "us", "lower"},
		metricDef{"rpc.roundtrip_p99_us", "us", "lower"},
		metricDef{"rpc.handler_p99_us", "us", "lower"},
		metricDef{"gen.lag_p99_ms", "ms", "lower"},
		metricDef{"chain.block_gap_p50_ms", "ms", "lower"},
		metricDef{"chain.block_gap_p99_ms", "ms", "lower"},
		metricDef{"chain.txs_per_block", "tx", "higher"},
		metricDef{"chain.blocks", "count", "higher"}, // also sharded_16
		metricDef{"types.sender_misses_per_tx", "1/tx", "lower"},
		// store_moves
		metricDef{"core.prove_ms", "ms", "lower"},
		metricDef{"core.verify_ms", "ms", "lower"},
		metricDef{"core.proof_kb", "KB", "lower"},
		metricDef{"relay.move1_sim_s", "s", "lower"},
		metricDef{"relay.pwait_sim_s", "s", "lower"},
		metricDef{"relay.move2_sim_s", "s", "lower"},
		metricDef{"move_sim_s", "s", "lower"},
		// sharded_16
		metricDef{"shard.moves", "count", "higher"},
		metricDef{"shard.moves_failed", "count", "lower"},
		metricDef{"sim_tx_s", "tx/s", "higher"},
		// all workloads
		metricDef{"gc.pause_ms", "ms", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// perLayerUnits maps every per-layer metric to its unit.
var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = d.unit
	}
	return m
}()
