// Command loadgen drives a live multi-chain universe through its real front
// door: per-chain JSON-over-HTTP RPC servers, consensus over loopback TCP
// sockets, and a wall-clock event driver. It pre-signs a keyed-user
// workload offline, fires it open-loop at the RPC endpoints at a configured
// rate, waits for every transaction to commit, and reports wall-clock
// submission latency quantiles (client- and server-side) plus throughput.
//
// With -verify (the default) it then replays the exact same pre-signed
// workload on the deterministic discrete-event path — same genesis, same
// chains, virtual time — and requires the final state root of every chain
// to match the socket run bit for bit. The two paths share all state
// transition code; only transports and clocks differ, so a mismatch means
// a real concurrency bug.
//
//	go run ./cmd/loadgen -txs 100000 -rate 5000
//
// Exit status is non-zero if any valid submission is rejected, no
// wall-clock latency histogram was recorded, the workload fails to drain,
// or the replayed state roots differ.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/rpc"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

func main() {
	var (
		txCount    = flag.Int("txs", 10_000, "total pre-signed transactions")
		shards     = flag.Int("chains", 2, "number of Burrow shards")
		users      = flag.Int("users", 32, "signing users (each owns one nonce sequence)")
		rate       = flag.Float64("rate", 0, "target submissions per second, 0 = as fast as possible")
		validators = flag.Int("validators", 4, "validators per shard")
		interval   = flag.Duration("interval", 500*time.Millisecond, "block interval")
		blockTxs   = flag.Int("blocktxs", 2000, "max transactions per block")
		timeout    = flag.Duration("timeout", 5*time.Minute, "drain timeout after submission")
		verify     = flag.Bool("verify", true, "replay on the discrete-event path and compare state roots")
	)
	flag.Parse()
	if err := run(*txCount, *shards, *users, *rate, *validators, *interval, *blockTxs, *timeout, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// sink receives every transfer; its final balance is the committed tx count.
var sink = hashing.AddressFromBytes([]byte("loadgen-sink"))

// userKey derives the i-th load-generator key pair (distinct from the
// universe's client key range).
func userKey(i int) *keys.KeyPair { return keys.Deterministic(uint64(500_000 + i)) }

// universeConfig builds the shard layout shared by the socket run and the
// discrete-event replay: identical genesis (funded users plus pre-created
// proposer accounts) so identical workloads reach identical roots.
func universeConfig(shards, users, validators, blockTxs int, interval time.Duration) universe.Config {
	registry := contracts.NewRegistry()
	cfg := universe.Config{
		Clients:     0,
		SubmitDelay: 50 * time.Millisecond,
		RelayDelay:  50 * time.Millisecond,
		NetSeed:     7,
		ExtraGenesis: func(id hashing.ChainID, db *state.DB) {
			for i := 0; i < users; i++ {
				db.AddBalance(userKey(i).Address(), u256.FromUint64(1<<40))
			}
			// Pre-create every proposer account: blocks credit fee income to
			// ProposerAddress(chain, height%10), and with zero gas prices the
			// credit is zero — but crediting creates the record. Creating all
			// ten at genesis makes the final root independent of how many
			// blocks each run needed.
			for k := 0; k < 10; k++ {
				db.AddBalance(chain.ProposerAddress(id, k), u256.Zero())
			}
		},
	}
	for s := 0; s < shards; s++ {
		spec := universe.BurrowSpec(hashing.ChainID(s+1), registry, int64(100+s))
		spec.Validators = validators
		spec.Config.BlockInterval = interval
		spec.Config.MaxBlockTxs = blockTxs
		spec.Config.BlockGasLimit = 1_000_000_000
		spec.Seed = int64(100 + s)
		cfg.Specs = append(cfg.Specs, spec)
	}
	return cfg
}

// userLoad is one user's pre-signed workload, bound to one chain.
type userLoad struct {
	chainID hashing.ChainID
	txs     []*types.Transaction
}

// presign builds and signs the whole workload offline, before any server
// exists: users round-robin across chains, each holding a dense nonce
// sequence of unit transfers to the sink. Signing fans out on the shared
// crypto pool.
func presign(cfg universe.Config, txCount, users int) []*userLoad {
	loads := make([]*userLoad, users)
	for u := 0; u < users; u++ {
		cid := cfg.Specs[u%len(cfg.Specs)].Config.ChainID
		n := txCount / users
		if u < txCount%users {
			n++
		}
		load := &userLoad{chainID: cid, txs: make([]*types.Transaction, 0, n)}
		kp := userKey(u)
		for nonce := 0; nonce < n; nonce++ {
			tx := &types.Transaction{
				ChainID:  cid,
				Nonce:    uint64(nonce),
				Kind:     types.TxCall,
				To:       sink,
				Value:    u256.FromUint64(1),
				GasLimit: 100_000,
				GasPrice: u256.Zero(),
			}
			tx.SignOn(kp, keys.SharedPool())
			load.txs = append(load.txs, tx)
		}
		loads[u] = load
	}
	for _, load := range loads {
		for _, tx := range load.txs {
			if err := tx.WaitSig(); err != nil {
				panic(err) // deterministic keys cannot fail to sign
			}
		}
	}
	return loads
}

func run(txCount, shards, users int, rate float64, validators int,
	interval time.Duration, blockTxs int, timeout time.Duration, verify bool) error {
	if users < 1 || shards < 1 || txCount < users {
		return fmt.Errorf("need txs >= users >= 1 and chains >= 1 (got txs=%d users=%d chains=%d)",
			txCount, users, shards)
	}
	cfg := universeConfig(shards, users, validators, blockTxs, interval)

	signStart := time.Now()
	loads := presign(cfg, txCount, users)
	fmt.Printf("pre-signed %d txs for %d users on %d chains in %v\n",
		txCount, users, shards, time.Since(signStart).Round(time.Millisecond))

	// The socket run: RPC front doors, TCP consensus, wall-clock driver.
	wallCfg := cfg
	wallCfg.RPC = true
	wallCfg.Realtime = true
	wallCfg.TCPWan = true
	u, err := universe.New(wallCfg)
	if err != nil {
		return err
	}
	u.Start()
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		u.Driver().Run(stop)
	}()

	clientReg := metrics.NewRegistry()
	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * users,
		MaxIdleConnsPerHost: 2 * users,
	}}

	var rejected, known, submitted atomic.Uint64
	var firstErr atomic.Value
	fireStart := time.Now()
	var wg sync.WaitGroup
	for ui, load := range loads {
		wg.Add(1)
		go func(ui int, load *userLoad) {
			defer wg.Done()
			addr := u.RPCAddr(load.chainID)
			for j, tx := range load.txs {
				if rate > 0 {
					// Open-loop pacing: the j-th tx of user ui occupies global
					// slot j*users+ui, fired at slot/rate seconds — the schedule
					// does not slow down when the server does.
					due := fireStart.Add(time.Duration(float64(j*users+ui) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				txStart := time.Now()
				resp, err := postSubmit(httpClient, addr, tx)
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("user %d: %w", ui, err))
					return
				}
				clientReg.ObserveWall("loadgen.submit.wall", time.Since(txStart))
				switch {
				case !resp.Ok:
					rejected.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("user %d tx %d rejected: %s", ui, j, resp.Error))
				case resp.Known:
					known.Add(1)
				}
				submitted.Add(1)
			}
		}(ui, load)
	}
	wg.Wait()
	fireElapsed := time.Since(fireStart)

	// Drain: per-user nonce sequences commit in order, so the last tx's
	// receipt implies the whole user landed.
	drainErr := waitDrain(httpClient, u, loads, timeout)
	drainElapsed := time.Since(fireStart)

	close(stop)
	<-driverDone

	roots := make(map[hashing.ChainID]hashing.Hash, shards)
	for _, id := range u.ChainIDs() {
		roots[id] = u.Chain(id).StateDB().Root()
	}
	heights := make(map[hashing.ChainID]uint64, shards)
	for _, id := range u.ChainIDs() {
		heights[id] = u.Chain(id).Head().Height
	}

	fmt.Printf("submitted %d txs in %v (%.0f tx/s), drained in %v\n",
		submitted.Load(), fireElapsed.Round(time.Millisecond),
		float64(submitted.Load())/fireElapsed.Seconds(), drainElapsed.Round(time.Millisecond))
	for _, id := range u.ChainIDs() {
		root := roots[id]
		fmt.Printf("chain %s: height %d, root %x…\n", id, heights[id], root[:8])
	}

	submitHist := u.WallMetrics().Histogram("rpc.submit.wall")
	printHist := func(name string, h *metrics.Histogram) {
		if h == nil || h.Count() == 0 {
			fmt.Printf("%s: no samples\n", name)
			return
		}
		fmt.Printf("%s: n=%d p50=%v p95=%v p99=%v\n", name, h.Count(),
			h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.95).Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond))
	}
	printHist("rpc.submit.wall", submitHist)
	printHist("loadgen.submit.wall", clientReg.Histogram("loadgen.submit.wall"))
	printHist("rpc.receipt.wall", u.WallMetrics().Histogram("rpc.receipt.wall"))

	if err := u.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return err
	}
	if drainErr != nil {
		return drainErr
	}
	if rejected.Load() > 0 {
		return fmt.Errorf("%d valid submissions rejected", rejected.Load())
	}
	if known.Load() > 0 {
		return fmt.Errorf("%d submissions unexpectedly reported known", known.Load())
	}
	if submitHist == nil || submitHist.Count() == 0 {
		return fmt.Errorf("no wall-clock submit latency samples recorded")
	}

	if !verify {
		return nil
	}
	return replayAndCompare(cfg, loads, roots)
}

// postSubmit fires one signed transaction at a chain's RPC endpoint and
// records the client-observed wall latency.
func postSubmit(c *http.Client, addr string, tx *types.Transaction) (*rpc.Response, error) {
	body, err := json.Marshal(&rpc.Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
	if err != nil {
		return nil, err
	}
	httpResp, err := c.Post("http://"+addr+"/", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var resp rpc.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// waitDrain polls each user's final receipt over RPC until every sequence
// committed or the timeout expires.
func waitDrain(c *http.Client, u *universe.Universe, loads []*userLoad, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, load := range loads {
		last := load.txs[len(load.txs)-1]
		id := last.ID()
		req, err := json.Marshal(&rpc.Request{Method: "receipt", Tx: hex.EncodeToString(id[:])})
		if err != nil {
			return err
		}
		addr := u.RPCAddr(load.chainID)
		for {
			httpResp, err := c.Post("http://"+addr+"/", "application/json", bytes.NewReader(req))
			if err != nil {
				return err
			}
			var resp rpc.Response
			derr := json.NewDecoder(httpResp.Body).Decode(&resp)
			httpResp.Body.Close()
			if derr != nil {
				return derr
			}
			if resp.Found {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("drain timeout: tx %x on %s not committed after %v",
					id[:8], load.chainID, timeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// replayAndCompare reruns the identical pre-signed workload on the
// deterministic discrete-event path and compares every chain's final state
// root with the socket run's.
func replayAndCompare(cfg universe.Config, loads []*userLoad, want map[hashing.ChainID]hashing.Hash) error {
	u, err := universe.New(cfg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer u.Close()
	u.Start()
	for _, load := range loads {
		c := u.Chain(load.chainID)
		for _, tx := range load.txs {
			if _, err := c.SubmitTx(tx); err != nil {
				return fmt.Errorf("replay submit: %w", err)
			}
		}
	}
	committed := func() bool {
		for _, load := range loads {
			last := load.txs[len(load.txs)-1]
			if _, ok := u.Chain(load.chainID).Receipt(last.ID()); !ok {
				return false
			}
		}
		return true
	}
	if !u.RunUntil(committed, 2*time.Hour) {
		return fmt.Errorf("replay: workload did not drain in simulated time")
	}
	for _, id := range u.ChainIDs() {
		got := u.Chain(id).StateDB().Root()
		if got != want[id] {
			return fmt.Errorf("replay root mismatch on chain %s: socket run %x, discrete-event run %x",
				id, want[id], got)
		}
		fmt.Printf("chain %s: replay root matches (%x…)\n", id, got[:8])
	}
	return nil
}
