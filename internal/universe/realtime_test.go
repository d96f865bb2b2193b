package universe

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/rpc"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// realtimeConfig is a two-shard layout shared by the socket run and its
// discrete-event twin: zero-fee workload plus pre-created proposer
// accounts, so both runs reach the same root regardless of block count.
func realtimeConfig(userKeys []*keys.KeyPair) Config {
	registry := contracts.NewRegistry()
	cfg := Config{
		SubmitDelay: 50 * time.Millisecond,
		RelayDelay:  50 * time.Millisecond,
		NetSeed:     7,
		ExtraGenesis: func(id hashing.ChainID, db *state.DB) {
			for _, kp := range userKeys {
				db.AddBalance(kp.Address(), u256.FromUint64(1<<30))
			}
			for k := 0; k < 10; k++ {
				db.AddBalance(chain.ProposerAddress(id, k), u256.Zero())
			}
		},
	}
	for s := 0; s < 2; s++ {
		spec := BurrowSpec(hashing.ChainID(s+1), registry, int64(100+s))
		spec.Validators = 4
		spec.Config.BlockInterval = 150 * time.Millisecond
		cfg.Specs = append(cfg.Specs, spec)
	}
	return cfg
}

// signedTransfers builds each user's nonce-ordered zero-fee transfers.
func signedTransfers(t *testing.T, userKeys []*keys.KeyPair, perUser int) [][]*types.Transaction {
	t.Helper()
	sink := hashing.AddressFromBytes([]byte("rt-sink"))
	out := make([][]*types.Transaction, len(userKeys))
	for ui, kp := range userKeys {
		cid := hashing.ChainID(ui%2 + 1)
		for n := 0; n < perUser; n++ {
			tx := &types.Transaction{
				ChainID: cid, Nonce: uint64(n), Kind: types.TxCall, To: sink,
				Value: u256.FromUint64(1), GasLimit: 100_000, GasPrice: u256.Zero(),
			}
			if _, err := tx.Sign(kp); err != nil {
				t.Fatal(err)
			}
			out[ui] = append(out[ui], tx)
		}
	}
	return out
}

// The full live stack — HTTP RPC front doors, consensus over loopback TCP,
// wall-clock driver — commits a concurrent workload to the same state root
// the deterministic discrete-event path produces for it.
func TestRealtimeTCPRPCMatchesDiscreteEvent(t *testing.T) {
	userKeys := make([]*keys.KeyPair, 4)
	for i := range userKeys {
		userKeys[i] = keys.Deterministic(uint64(700 + i))
	}
	const perUser = 50
	workload := signedTransfers(t, userKeys, perUser)

	cfg := realtimeConfig(userKeys)
	cfg.RPC, cfg.Realtime, cfg.TCPWan = true, true, true
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		u.Driver().Run(stop)
	}()

	post := func(addr string, req *rpc.Request) *rpc.Response {
		body, _ := json.Marshal(req)
		httpResp, err := http.Post("http://"+addr+"/", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("post: %v", err)
			return &rpc.Response{}
		}
		defer httpResp.Body.Close()
		var resp rpc.Response
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Errorf("decode: %v", err)
		}
		return &resp
	}

	done := make(chan struct{}, len(userKeys))
	for ui, txs := range workload {
		go func(ui int, txs []*types.Transaction) {
			defer func() { done <- struct{}{} }()
			addr := u.RPCAddr(txs[0].ChainID)
			for _, tx := range txs {
				resp := post(addr, &rpc.Request{Method: "submit", Tx: hex.EncodeToString(tx.Encode())})
				if !resp.Ok {
					t.Errorf("user %d: submit rejected: %s", ui, resp.Error)
					return
				}
			}
		}(ui, txs)
	}
	for range workload {
		<-done
	}

	// Drain: the last receipt per user implies its whole nonce sequence.
	deadline := time.Now().Add(60 * time.Second)
	for _, txs := range workload {
		last := txs[len(txs)-1]
		id := last.ID()
		addr := u.RPCAddr(last.ChainID)
		for {
			resp := post(addr, &rpc.Request{Method: "receipt", Tx: hex.EncodeToString(id[:])})
			if resp.Found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tx %x never committed", id[:8])
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	close(stop)
	<-driverDone

	if h := u.WallMetrics().Histogram("rpc.submit.wall"); h == nil || h.Count() == 0 {
		t.Error("no wall-clock submit latency samples")
	}
	liveRoots := make(map[hashing.ChainID]hashing.Hash)
	for _, id := range u.ChainIDs() {
		liveRoots[id] = u.Chain(id).StateDB().Root()
	}
	if err := u.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The discrete-event twin: same genesis, same pre-signed transactions,
	// virtual time. Final roots must match bit for bit.
	sim, err := New(realtimeConfig(userKeys))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Start()
	for _, txs := range workload {
		c := sim.Chain(txs[0].ChainID)
		for _, tx := range txs {
			if _, err := c.SubmitTx(tx); err != nil {
				t.Fatalf("replay submit: %v", err)
			}
		}
	}
	committed := func() bool {
		for _, txs := range workload {
			last := txs[len(txs)-1]
			if _, ok := sim.Chain(last.ChainID).Receipt(last.ID()); !ok {
				return false
			}
		}
		return true
	}
	if !sim.RunUntil(committed, 10*time.Minute) {
		t.Fatal("replay did not drain in simulated time")
	}
	for _, id := range sim.ChainIDs() {
		if got := sim.Chain(id).StateDB().Root(); got != liveRoots[id] {
			t.Errorf("chain %s: socket run root %x, discrete-event root %x", id, liveRoots[id], got)
		}
	}
}

// Invalid configuration combinations are rejected up front.
func TestRealtimeConfigValidation(t *testing.T) {
	cfg := ShardedConfig(1, 1)
	cfg.TCPWan = true
	if _, err := New(cfg); err == nil {
		t.Error("TCPWan without Realtime accepted")
	}
	cfg = ShardedConfig(1, 1)
	cfg.Realtime = true
	cfg.Chaos = &ChaosConfig{}
	if _, err := New(cfg); err == nil {
		t.Error("Chaos with Realtime accepted")
	}
}
