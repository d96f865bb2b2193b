package chain

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Pre-deployed fuzz contracts. rmw is maximally conflicting: every call
// read-modify-writes slot 0. disjoint writes a caller-keyed slot, so calls
// from different senders never conflict. boom self-destructs on first call
// (later calls hit a code-less account and degrade to transfers).
var (
	fuzzRMWAddr      = hashing.AddressFromBytes([]byte{0xC1})
	fuzzDisjointAddr = hashing.AddressFromBytes([]byte{0xC2})
	fuzzBoomAddr     = hashing.AddressFromBytes([]byte{0xC3})

	fuzzRMWCode      = asm.MustAssemble("PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0 SSTORE STOP")
	fuzzDisjointCode = asm.MustAssemble("PUSH1 0 CALLDATALOAD CALLER SSTORE STOP")
	fuzzBoomCode     = asm.MustAssemble("CALLER SELFDESTRUCT")
)

func fuzzSenders() []*keys.KeyPair {
	kps := make([]*keys.KeyPair, 8)
	for i := range kps {
		kps[i] = keys.Deterministic(uint64(i + 1))
	}
	return kps
}

// buildFuzzTraffic deterministically generates ~120 transactions — valid
// transfers (some to the coinbase), conflicting and disjoint contract calls,
// creates, self-destruct calls, bad nonces, underfunded value sends, forged
// senders, and duplicated pointers — then chunks them into random block
// batches including empty ones. Every transaction is decoded from its wire
// form so no run inherits memoized senders, and duplicate pointers stay
// duplicates.
func buildFuzzTraffic(t *testing.T, seed int64, chainID hashing.ChainID) [][]*types.Transaction {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kps := fuzzSenders()
	nonces := make([]uint64, len(kps))

	var txs []*types.Transaction
	push := func(tx *types.Transaction) {
		dec, err := types.DecodeTransaction(tx.Encode())
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, dec)
	}

	for len(txs) < 120 {
		s := rng.Intn(len(kps))
		kp := kps[s]
		switch rng.Intn(12) {
		case 0, 1: // plain transfer
			to := hashing.AddressFromBytes([]byte{byte(rng.Intn(20) + 1)})
			push(signedCall(t, kp, chainID, nonces[s], to, nil, uint64(rng.Intn(500)+1)))
			nonces[s]++
		case 2: // transfer straight to the coinbase
			push(signedCall(t, kp, chainID, nonces[s], ProposerAddress(chainID, 0), nil, uint64(rng.Intn(100)+1)))
			nonces[s]++
		case 3, 4: // read-modify-write on the shared slot
			push(signedCall(t, kp, chainID, nonces[s], fuzzRMWAddr, nil, 0))
			nonces[s]++
		case 5, 6: // caller-keyed disjoint write
			var data [32]byte
			data[31] = byte(rng.Intn(200) + 1)
			push(signedCall(t, kp, chainID, nonces[s], fuzzDisjointAddr, data[:], 0))
			nonces[s]++
		case 7: // bad nonce: fails before charging
			push(signedCall(t, kp, chainID, nonces[s]+7, hashing.AddressFromBytes([]byte{9}), nil, 1))
		case 8: // insufficient funds for value
			push(signedCall(t, kp, chainID, nonces[s], hashing.AddressFromBytes([]byte{9}), nil, 10*fund))
		case 9: // forged sender: authentication failure path
			push(forgedFromTx(t, kp, chainID))
		case 10: // contract creation
			tx := &types.Transaction{
				ChainID:  chainID,
				Nonce:    nonces[s],
				Kind:     types.TxCreate,
				GasLimit: 1_000_000,
				GasPrice: u256.FromUint64(2),
				Data:     asm.MustAssemble("PUSH1 7 PUSH1 3 SSTORE STOP"),
			}
			if _, err := tx.Sign(kp); err != nil {
				t.Fatal(err)
			}
			push(tx)
			nonces[s]++
		case 11: // SELFDESTRUCT target
			push(signedCall(t, kp, chainID, nonces[s], fuzzBoomAddr, nil, uint64(rng.Intn(10))))
			nonces[s]++
		}
		if len(txs) > 0 && rng.Intn(10) == 0 {
			// Duplicate pointer: same *Transaction twice in the stream. The
			// second execution sees a consumed nonce and fails; in one block
			// sender recovery must also recover the pointer only once.
			txs = append(txs, txs[len(txs)-1])
		}
	}

	var blocks [][]*types.Transaction
	for i := 0; i < len(txs); {
		n := rng.Intn(13) // 0..12: empty to full batches
		if i+n > len(txs) {
			n = len(txs) - i
		}
		blocks = append(blocks, txs[i:i+n])
		i += n
	}
	return blocks
}

// runFuzzChain replays the block stream on a fresh chain and returns every
// commit root, header hash, and receipt.
func runFuzzChain(t *testing.T, cfg Config, blocks [][]*types.Transaction) ([]hashing.Hash, []hashing.Hash, []*types.Receipt) {
	t.Helper()
	kps := fuzzSenders()
	c := newChain(t, cfg, nil, kps[0])
	db := c.StateDB()
	for _, kp := range kps[1:] {
		db.AddBalance(kp.Address(), u256.FromUint64(fund))
	}
	db.CreateContract(fuzzRMWAddr, fuzzRMWCode)
	db.CreateContract(fuzzDisjointAddr, fuzzDisjointCode)
	db.CreateContract(fuzzBoomAddr, fuzzBoomCode)
	db.Commit()

	var roots, headers []hashing.Hash
	var receipts []*types.Receipt
	for i, blk := range blocks {
		b, recs := c.ApplyBlock(blk, uint64(1000+i), ProposerAddress(cfg.ChainID, 0))
		root, _ := c.RootAt(b.Header.Height)
		roots = append(roots, root)
		headers = append(headers, b.Header.Hash())
		receipts = append(receipts, recs...)
	}
	return roots, headers, receipts
}

// TestApplyBlockParallelDifferential replays the same randomized traffic —
// conflicts, failures, forgeries, duplicates, self-destructs, chaotic block
// sizes — at GOMAXPROCS 1, where sender recovery and commit hashing run
// inline, and at higher settings, where they fan out on the crypto pool.
// Roots, header hashes and receipts must be bit-identical.
func TestApplyBlockParallelDifferential(t *testing.T) {
	for _, cfgOf := range []func(hashing.ChainID) Config{ethConfig, burrowConfig} {
		cfg := cfgOf(1)
		t.Run(cfg.TreeKind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var wantRoots, wantHeaders []hashing.Hash
				var wantRecs []*types.Receipt
				for _, procs := range []int{1, 2, 4, runtime.NumCPU()} {
					prev := runtime.GOMAXPROCS(procs)
					roots, headers, recs := runFuzzChain(t, cfg, buildFuzzTraffic(t, seed, cfg.ChainID))
					runtime.GOMAXPROCS(prev)
					if procs == 1 {
						wantRoots, wantHeaders, wantRecs = roots, headers, recs
						continue
					}
					if !reflect.DeepEqual(roots, wantRoots) {
						t.Fatalf("seed %d GOMAXPROCS=%d: state roots diverge", seed, procs)
					}
					if !reflect.DeepEqual(headers, wantHeaders) {
						t.Fatalf("seed %d GOMAXPROCS=%d: header hashes diverge", seed, procs)
					}
					if !reflect.DeepEqual(recs, wantRecs) {
						t.Fatalf("seed %d GOMAXPROCS=%d: receipts diverge", seed, procs)
					}
				}
			}
		})
	}
}

// TestApplyBlockEmptyFastPath: an empty batch must still commit a block,
// with no receipts, no gas and an unchanged root.
func TestApplyBlockEmptyFastPath(t *testing.T) {
	c := newChain(t, ethConfig(1), nil, keys.Deterministic(1))
	root0, _ := c.RootAt(0)

	block, receipts := c.ApplyBlock(nil, 100, ProposerAddress(1, 0))
	if len(receipts) != 0 {
		t.Fatalf("empty block produced receipts: %+v", receipts)
	}
	if block.Header.Height != 1 || block.Header.GasUsed != 0 {
		t.Fatalf("header %+v", block.Header)
	}
	if root, _ := c.RootAt(1); root != root0 {
		t.Fatal("empty block must not change state")
	}
}
