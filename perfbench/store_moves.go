package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// store_moves: two Burrow chains on the file state backend. A fixed set of
// Store contracts of storeSlots slots each is deployed on the first chain
// and moved back and forth with MoveAndWait, one move at a time, round
// robin over the contracts. Each move is timed by wall clock. Set-up is
// repeated for every epoch of storeEpochMoves moves.
const (
	storeContracts  = 4
	storeSlots      = 1500 // fits relay.DefaultGasLimit; 2000 slots do not deploy
	storeSpotReads  = 8    // slot values read back per move
	storeFullEvery  = 10   // every n-th move reads every slot and replays its proof
	storeEpochMoves = 200  // moves per fresh universe
)

func storeConfig(p params, dir string) universe.Config {
	cfg := universe.ShardedConfig(2, 1)
	cfg.NetSeed = p.Seed
	cfg.State = state.Options{Backend: backend.KindFile, Dir: dir}
	return cfg
}

// storeValue returns the key of the Store's slot i and the value its
// constructor writes there.
func storeValue(i uint64) (evm.Word, evm.Word) {
	var key, val evm.Word
	key[0] = 0x01
	binary.BigEndian.PutUint64(key[24:], i)
	h := hashing.Sum(key[:])
	copy(val[:], h[:])
	return key, val
}

// storeEnv is a built universe with its contracts deployed.
type storeEnv struct {
	u     *universe.Universe
	dir   string
	addrs []hashing.Address
}

func (e *storeEnv) close() error {
	return errors.Join(e.u.Close(), os.RemoveAll(e.dir))
}

// setupStore builds the universe and deploys the contracts.
func setupStore(p params, attempt int, slots uint64) (*storeEnv, error) {
	dir := filepath.Join(p.Dir, fmt.Sprintf("store-%d-%d", os.Getpid(), attempt))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	u, err := universe.New(storeConfig(p, dir))
	if err != nil {
		return nil, err
	}
	e := &storeEnv{u: u, dir: dir}
	u.Start()
	cl := u.Client(0)
	src := u.Chain(u.ChainIDs()[0])
	for k := 0; k < storeContracts; k++ {
		addr, err := u.MustDeploy(cl, src, contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), slots), u256.Zero(), 10*time.Minute)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.addrs = append(e.addrs, addr)
	}
	return e, nil
}

// storeRun collects the samples of one run's moves.
type storeRun struct {
	slots                         uint64
	lat, sim, move1, pwait, move2 []float64
	prove, verify, proofKB        []float64
	moveWall                      time.Duration // summed MoveAndWait time
	attempted, failed             int64
}

func runStoreMoves(p params, traced bool) (*report, error) {
	run := &storeRun{slots: storeSlots}
	if p.Small {
		run.slots = 50
	}
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, err
	}
	m, err := startMeter(traced)
	if err != nil {
		return nil, err
	}
	// Each epoch moves the contracts of a fresh universe storeEpochMoves
	// times, so the chains' in-memory block history, and with it the heap,
	// stays the same size however fast the moves run.
	var setups []time.Duration
	for epoch := 0; run.moveWall < p.Window; epoch++ {
		var e *storeEnv
		err := m.exclude(func() (err error) {
			t0 := time.Now()
			e, err = setupStore(p, epoch, run.slots)
			setups = append(setups, time.Since(t0))
			return err
		})
		if err == nil {
			err = run.epoch(e, p.Window)
			m.settleHeap()
			err = errors.Join(err, m.exclude(e.close))
		}
		if err != nil {
			_, _, _ = m.end()
			return nil, err
		}
	}
	mem, cpu, err := m.end()
	if err != nil {
		return nil, err
	}

	r := &report{setup: medianDuration(setups), attempted: run.attempted, failed: run.failed}
	lat := run.lat
	r.ops = float64(len(lat))
	r.opsPerS = r.ops / run.moveWall.Seconds()
	r.p50, r.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	r.mem, r.cpuNs = mem, cpu
	r.headline = r.opsPerS
	simMedian := quantile(run.sim, 0.5)
	r.add("moves_per_s", r.opsPerS, "moves/s")
	r.add("move_p50_ms", r.p50, "ms")
	r.add("move_p99_ms", r.p99, "ms")
	r.add("move_samples", r.ops, "moves")
	r.add("move_sim_s", simMedian, "s")
	r.layers = map[string]float64{
		"core.prove_ms":     quantile(run.prove, 0.5),
		"core.verify_ms":    quantile(run.verify, 0.5),
		"core.proof_kb":     quantile(run.proofKB, 0.5),
		"relay.move1_sim_s": quantile(run.move1, 0.5),
		"relay.pwait_sim_s": quantile(run.pwait, 0.5),
		"relay.move2_sim_s": quantile(run.move2, 0.5),
		"move_sim_s":        simMedian,
	}
	return r, nil
}

// epoch moves e's contracts round robin, storeEpochMoves moves or until
// the summed move time reaches window. Only MoveAndWait is timed; the
// output checks after each move are not.
func (run *storeRun) epoch(e *storeEnv, window time.Duration) error {
	u, cl := e.u, e.u.Client(0)
	ids := u.ChainIDs()
	loc := make([]int, len(e.addrs)) // index into ids of each contract's chain
	for i := 0; i < storeEpochMoves && run.moveWall < window; i++ {
		k := i % len(e.addrs)
		from, to, addr := ids[loc[k]], ids[1-loc[k]], e.addrs[k]
		t0 := time.Now()
		res, err := u.MoveAndWait(cl, from, to, addr, 30*time.Minute)
		d := time.Since(t0)
		run.attempted++
		if err != nil {
			return fmt.Errorf("store_moves: move of %s %s->%s: %w", addr, from, to, err)
		}
		run.moveWall += d
		run.lat = append(run.lat, ms(d))
		run.sim = append(run.sim, res.Total().Seconds())
		run.move1 = append(run.move1, res.Move1Latency().Seconds())
		run.pwait = append(run.pwait, res.WaitProofLatency().Seconds())
		run.move2 = append(run.move2, res.Move2Latency().Seconds())
		loc[k] = 1 - loc[k]

		full := i%storeFullEvery == 0
		err = checkMove(u.Chain(from), u.Chain(to), addr, run.slots, full)
		if err == nil && full {
			var s proofSpans
			s, err = checkReplay(u.Chain(from), u.Chain(to), addr, res.Move1Tx)
			run.prove = append(run.prove, s.proveMs)
			run.verify = append(run.verify, s.verifyMs)
			run.proofKB = append(run.proofKB, s.kb)
		}
		if err != nil {
			fmt.Printf("store_moves: move of %s %s->%s: %v\n", addr, from, to, err)
			run.failed++
		}
	}
	return nil
}

// checkMove verifies a finished move: the contract's location reads as the
// target on both chains, and the Store's values read back on the target —
// every slot when full is set, storeSpotReads of them otherwise.
func checkMove(src, dst *chain.Chain, addr hashing.Address, slots uint64, full bool) error {
	want := dst.ChainID()
	for _, c := range []*chain.Chain{src, dst} {
		if a, ok := c.QueryAccount(addr); !ok || a.Location != want {
			return fmt.Errorf("%s reads location %s (exists %v), want %s", c.ChainID(), a.Location, ok, want)
		}
	}
	step := slots / storeSpotReads
	if full || step == 0 {
		step = 1
	}
	for i := uint64(0); i < slots; i += step {
		key, val := storeValue(i)
		if got := dst.QueryStorage(addr, key); got != val {
			return fmt.Errorf("target slot %d = %x, want %x", i, got, val)
		}
	}
	return nil
}

// proofSpans times the proof calls of one finished move.
type proofSpans struct {
	proveMs, verifyMs, kb float64
}

// checkReplay rebuilds the move's Move2 payload at the Move1 height and
// requires the target to refuse it as a replay, timing both calls.
func checkReplay(src, dst *chain.Chain, addr hashing.Address, move1 hashing.Hash) (proofSpans, error) {
	var s proofSpans
	height, ok := src.TxHeight(move1)
	if !ok {
		return s, fmt.Errorf("move1 %s has no height", move1)
	}
	t0 := time.Now()
	payload, err := src.Move2ProofAt(addr, height)
	s.proveMs = ms(time.Since(t0))
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	_, err = core.VerifyMove2(dst.ChainID(), dst.StateDB(), dst.Headers(), payload)
	s.verifyMs = ms(time.Since(t1))
	if !errors.Is(err, core.ErrReplay) {
		return s, fmt.Errorf("replayed Move2: got %v, want %v", err, core.ErrReplay)
	}
	s.kb = float64(len(types.EncodeMove2Payload(payload))) / 1024
	return s, nil
}
