package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/rpc"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// rpc_transfers: two Burrow chains with 4 validators each, consensus over
// loopback TCP, one HTTP RPC server per chain and the wall-clock driver.
// Unit transfers are pre-signed in set-up and fired open-loop at a fixed
// rate from one connection per chain; each is timed from its due send time
// to the OnBlock callback of the block that holds it.
const (
	rpcChains     = 2
	rpcValidators = 4
	rpcUsers      = 32 // signing users, each owning one nonce sequence
	rpcInterval   = 300 * time.Millisecond
	rpcBlockTxs   = 2000
	rpcRate       = 4000.0 // offered tx/s, about two thirds of saturation
	rpcWarmup     = time.Second
	rpcDrain      = 10 * time.Second
)

// rpcSink receives every transfer; its balance on a chain is the number of
// transfers that chain committed.
var rpcSink = hashing.AddressFromBytes([]byte("perfbench-sink"))

// rpcUserKey derives the generator's u-th key. The seed picks the key
// offset, so every seed funds and signs with a different population.
func rpcUserKey(seed int64, u int) *keys.KeyPair {
	return keys.Deterministic(1<<40 + uint64(seed)<<16 + uint64(u))
}

func rpcConfig(seed int64) universe.Config {
	cfg := universe.ShardedConfig(rpcChains, 0)
	cfg.NetSeed = seed
	cfg.RPC, cfg.Realtime, cfg.TCPWan = true, true, true
	funded := make(map[hashing.ChainID][]hashing.Address)
	for u := 0; u < rpcUsers; u++ {
		id := cfg.Specs[u%rpcChains].Config.ChainID
		funded[id] = append(funded[id], rpcUserKey(seed, u).Address())
	}
	cfg.ExtraGenesis = func(id hashing.ChainID, db *state.DB) {
		for _, a := range funded[id] {
			db.AddBalance(a, u256.FromUint64(1<<40))
		}
	}
	for i := range cfg.Specs {
		cfg.Specs[i].Validators = rpcValidators
		cfg.Specs[i].Seed += seed
		cfg.Specs[i].Config.BlockInterval = rpcInterval
		cfg.Specs[i].Config.MaxBlockTxs = rpcBlockTxs
	}
	return cfg
}

// presignTransfers signs n unit transfers offline and encodes their submit
// requests, and indexes the transfers by id. Slot s is due s/rate after the
// first and goes to chain s mod rpcChains; within a chain the users take
// turns, each with a dense nonce sequence.
func presignTransfers(cfg universe.Config, seed int64, n int) ([][]byte, map[hashing.Hash]int32, error) {
	perChain := rpcUsers / rpcChains
	kps := make([]*keys.KeyPair, rpcUsers)
	for u := range kps {
		kps[u] = rpcUserKey(seed, u)
	}
	txs := make([]*types.Transaction, n)
	for s := range txs {
		c, j := s%rpcChains, s/rpcChains
		u := c + rpcChains*(j%perChain)
		txs[s] = &types.Transaction{
			ChainID:  cfg.Specs[c].Config.ChainID,
			Nonce:    uint64(j / perChain),
			Kind:     types.TxCall,
			To:       rpcSink,
			Value:    u256.FromUint64(1),
			GasLimit: 100_000,
			GasPrice: u256.Zero(),
		}
		txs[s].SignOn(kps[u], keys.SharedPool())
	}
	bodies := make([][]byte, n)
	index := make(map[hashing.Hash]int32, n)
	for s, tx := range txs {
		if err := tx.WaitSig(); err != nil {
			return nil, nil, fmt.Errorf("presign: %w", err)
		}
		body, err := json.Marshal(&rpc.Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
		if err != nil {
			return nil, nil, err
		}
		bodies[s] = body
		index[tx.ID()] = int32(s)
	}
	// Signing stored every signature in the process-wide sender cache;
	// clear it so the node recovers each sender itself, as it would for a
	// remote client.
	types.SetSenderCacheCapacity(0)
	return bodies, index, nil
}

func runRPCTransfers(p params, traced bool) (*report, error) {
	const rate = rpcRate
	n := int(rate * p.Window.Seconds())
	cfg := rpcConfig(p.Seed)

	setupStart := time.Now()
	bodies, index, err := presignTransfers(cfg, p.Seed, n)
	if err != nil {
		return nil, err
	}
	presign := time.Since(setupStart)
	u, build, err := medianSetup(func(int) (*universe.Universe, error) { return universe.New(cfg) },
		(*universe.Universe).Close)
	if err != nil {
		return nil, err
	}
	defer u.Close()
	r := &report{setup: presign + build, attempted: int64(n)}

	// Commit times, relative to base, written by the driver goroutine and
	// read only after the driver stops.
	base := time.Now()
	commitAt := make([]time.Duration, n)
	var committed atomic.Int64
	type blockRec struct {
		at  time.Duration
		txs int
	}
	blocks := make([][]blockRec, rpcChains)
	for ci, id := range u.ChainIDs() {
		ci := ci
		u.Chain(id).OnBlock(func(b *types.Block, _ []*types.Receipt) {
			now := time.Since(base)
			blocks[ci] = append(blocks[ci], blockRec{now, len(b.Txs)})
			k := int64(0)
			for _, tx := range b.Txs {
				if s, ok := index[tx.ID()]; ok {
					commitAt[s] = now
					k++
				}
			}
			committed.Add(k)
		})
	}
	u.Start()
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		u.Driver().Run(stop)
	}()
	stopDriver := func() {
		if stop != nil {
			close(stop)
			<-driverDone
			stop = nil
		}
	}
	defer stopDriver()
	time.Sleep(rpcWarmup) // let consensus reach steady block production

	addrs := make([]string, rpcChains)
	for ci, id := range u.ChainIDs() {
		addrs[ci] = "http://" + u.RPCAddr(id) + "/"
	}
	sc0 := types.ReadSenderCacheStats()
	m, err := startMeter(traced)
	if err != nil {
		return nil, err
	}
	first := time.Since(base) + 10*time.Millisecond
	due := func(s int) time.Duration { return first + time.Duration(float64(s)/rate*float64(time.Second)) }
	lag := make([]float64, n)
	rtt := make([]float64, n)
	var rejected atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < rpcChains; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for s := c; s < n; s += rpcChains {
				if d := due(s) - time.Since(base); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(base)
				lag[s] = ms(sent - due(s))
				err := postSubmit(client, addrs[c], bodies[s])
				rtt[s] = float64(time.Since(base)-sent) / float64(time.Microsecond)
				if err != nil {
					rejected.Add(1)
					errOnce.Do(func() { firstErr = fmt.Errorf("slot %d: %w", s, err) })
				}
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(rpcDrain)
	for committed.Load() < int64(n)-rejected.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sc1 := types.ReadSenderCacheStats()
	mem, cpu, err := m.end()
	if err != nil {
		return nil, err
	}
	stopDriver()

	// Outputs: every submission accepted, every transfer committed, and
	// each chain's sink balance equal to the transfers sent to it.
	var lat []float64
	var last time.Duration
	for s := 0; s < n; s++ {
		if commitAt[s] > 0 {
			lat = append(lat, ms(commitAt[s]-due(s)))
			last = max(last, commitAt[s])
		}
	}
	r.failed = int64(n - len(lat)) // rejected ones never commit
	if rejected.Load() > 0 {
		fmt.Printf("rpc_transfers: %d submissions rejected or errored; first: %v\n", rejected.Load(), firstErr)
	}
	for ci, id := range u.ChainIDs() {
		sent := uint64((n - ci + rpcChains - 1) / rpcChains)
		acct, _ := u.Chain(id).QueryAccount(rpcSink)
		if got := acct.Balance; !got.Eq(u256.FromUint64(sent)) {
			fmt.Printf("rpc_transfers: chain %s sink balance %s, sent %d\n", id, got, sent)
			r.failed++
		}
	}

	r.ops = float64(len(lat))
	r.opsPerS = r.ops / (last - first).Seconds()
	r.p50, r.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	r.mem, r.cpuNs = mem, cpu
	r.headline, r.headlineLower = r.p99, true
	r.add("commit_tps", r.opsPerS, "tx/s")
	r.add("commit_p50_ms", r.p50, "ms")
	r.add("commit_p99_ms", r.p99, "ms")
	r.add("commit_samples", r.ops, "tx")

	var gaps []float64
	var inWindow, txsInWindow float64
	for _, recs := range blocks {
		for i, b := range recs {
			if b.at < first || b.at > last {
				continue
			}
			inWindow++
			txsInWindow += float64(b.txs)
			if i > 0 {
				gaps = append(gaps, ms(b.at-recs[i-1].at))
			}
		}
	}
	handler := u.WallMetrics().Histogram("rpc.submit.wall")
	r.layers = map[string]float64{
		"rpc.roundtrip_p50_us":       quantile(rtt, 0.5),
		"rpc.roundtrip_p99_us":       quantile(rtt, 0.99),
		"rpc.handler_p99_us":         float64(handler.Quantile(0.99)) / float64(time.Microsecond),
		"gen.lag_p99_ms":             quantile(lag, 0.99),
		"chain.block_gap_p50_ms":     quantile(gaps, 0.5),
		"chain.block_gap_p99_ms":     quantile(gaps, 0.99),
		"chain.txs_per_block":        txsInWindow / max(inWindow, 1),
		"chain.blocks":               inWindow,
		"types.sender_misses_per_tx": float64(sc1.Misses-sc0.Misses) / float64(n),
	}
	return r, nil
}

// postSubmit sends one pre-encoded submit request and requires the server
// to admit the transaction as new.
func postSubmit(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var out rpc.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return err
	}
	if !out.Ok || out.Known {
		return fmt.Errorf("submit: ok=%v known=%v %s", out.Ok, out.Known, out.Error)
	}
	return nil
}
