package bench

import (
	"encoding/binary"
	"fmt"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// ApplyBlockConfig describes one block-execution workload: Senders
// independent funded accounts each submit Txs/Senders contract calls into a
// single block.
type ApplyBlockConfig struct {
	// Senders is the number of distinct funded accounts (one nonce chain
	// each).
	Senders int
	// Txs is the total block size.
	Txs int
	// Conflicting selects the contract: true makes every call read-modify-
	// write one shared storage slot, false makes each call write a
	// caller-keyed slot.
	Conflicting bool
}

// ApplyBlockResult carries the committed outcome so callers can cross-check
// runs against each other.
type ApplyBlockResult struct {
	Root     hashing.Hash
	Receipts []*types.Receipt
}

const applyBlockFund = 1_000_000_000_000

// applyBlockContract is the fixed address of the workload contract.
var applyBlockContract = hashing.AddressFromBytes([]byte{0xB0})

// conflictingCode bumps shared slot 0 on every call; disjointCode writes the
// calldata word to a caller-keyed slot.
var (
	conflictingCode = asm.MustAssemble("PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0 SSTORE STOP")
	disjointCode    = asm.MustAssemble("PUSH1 0 CALLDATALOAD CALLER SSTORE STOP")
)

// BuildApplyBlockChain constructs a fresh single chain with the workload
// contract deployed and every sender funded in genesis.
func BuildApplyBlockChain(cfg ApplyBlockConfig) (*chain.Chain, error) {
	ccfg := chain.Config{
		ChainID:           1,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     1_000_000_000,
		MaxBlockTxs:       cfg.Txs + 1,
		ConfirmationDepth: 6,
		PoolLimit:         cfg.Txs + 1,
	}
	code := disjointCode
	if cfg.Conflicting {
		code = conflictingCode
	}
	return chain.New(ccfg, core.NewHeaderStore(), func(db *state.DB) {
		for s := 0; s < cfg.Senders; s++ {
			db.AddBalance(keys.Deterministic(uint64(s+1)).Address(), u256.FromUint64(applyBlockFund))
		}
		db.CreateContract(applyBlockContract, code)
	})
}

// BuildApplyBlockTxs generates the block: senders round-robin over the
// workload contract, nonces per sender in order. Transactions are decoded
// from wire form so every run re-recovers senders like a consensus-delivered
// block.
func BuildApplyBlockTxs(cfg ApplyBlockConfig) ([]*types.Transaction, error) {
	kps := make([]*keys.KeyPair, cfg.Senders)
	for s := range kps {
		kps[s] = keys.Deterministic(uint64(s + 1))
	}
	nonces := make([]uint64, cfg.Senders)
	txs := make([]*types.Transaction, 0, cfg.Txs)
	for i := 0; i < cfg.Txs; i++ {
		s := i % cfg.Senders
		var data [32]byte
		data[31] = byte(i%250 + 1)
		tx := &types.Transaction{
			ChainID:  1,
			Nonce:    nonces[s],
			Kind:     types.TxCall,
			To:       applyBlockContract,
			GasLimit: 1_000_000,
			GasPrice: u256.FromUint64(2),
			Data:     data[:],
		}
		nonces[s]++
		if _, err := tx.Sign(kps[s]); err != nil {
			return nil, err
		}
		dec, err := types.DecodeTransaction(tx.Encode())
		if err != nil {
			return nil, err
		}
		txs = append(txs, dec)
	}
	return txs, nil
}

// RunApplyBlock executes one freshly built block on one freshly built chain
// and returns the committed root and receipts.
func RunApplyBlock(cfg ApplyBlockConfig) (*ApplyBlockResult, error) {
	c, err := BuildApplyBlockChain(cfg)
	if err != nil {
		return nil, err
	}
	txs, err := BuildApplyBlockTxs(cfg)
	if err != nil {
		return nil, err
	}
	return applyOneBlock(c, txs)
}

// RunKittiesDAG executes the Kitties breeding-DAG block on a freshly built
// chain and returns the committed root and receipts.
func RunKittiesDAG() (*ApplyBlockResult, error) {
	c, err := buildKittiesDAGChain()
	if err != nil {
		return nil, err
	}
	txs, err := buildKittiesDAGTxs()
	if err != nil {
		return nil, err
	}
	return applyOneBlock(c, txs)
}

// applyOneBlock commits txs as block 1 of c and requires every transaction
// to succeed.
func applyOneBlock(c *chain.Chain, txs []*types.Transaction) (*ApplyBlockResult, error) {
	block, receipts := c.ApplyBlock(txs, 100, chain.ProposerAddress(1, 0))
	for _, rec := range receipts {
		if !rec.Succeeded() {
			return nil, fmt.Errorf("bench: apply block: tx failed: %s", rec.Err)
		}
	}
	root, _ := c.RootAt(block.Header.Height)
	return &ApplyBlockResult{Root: root, Receipts: receipts}, nil
}

// --- Kitties-DAG workload --------------------------------------------------

// The breed contract stores child = SLOAD(p1) + SLOAD(p2) + 1 at
// SSTORE(child), all three ids taken from calldata. A block of breeds is an
// explicit data DAG: generation g reads what generation g-1 wrote.
var (
	kittiesBreedAddr = hashing.AddressFromBytes([]byte{0xD7})
	kittiesBreedCode = asm.MustAssemble(
		"PUSH1 0 CALLDATALOAD SLOAD PUSH1 32 CALLDATALOAD SLOAD ADD PUSH1 1 ADD PUSH1 64 CALLDATALOAD SSTORE STOP")
)

const kittiesDAGSenders = 128

func kittiesBreedData(p1, p2, child uint64) []byte {
	data := make([]byte, 96)
	binary.BigEndian.PutUint64(data[24:32], p1)
	binary.BigEndian.PutUint64(data[56:64], p2)
	binary.BigEndian.PutUint64(data[88:96], child)
	return data
}

// buildKittiesDAGChain constructs a chain with the breed contract and 64
// promo kitties (slots 1..64) in genesis and every breeder funded.
func buildKittiesDAGChain() (*chain.Chain, error) {
	ccfg := chain.Config{
		ChainID:           1,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     1_000_000_000,
		MaxBlockTxs:       kittiesDAGSenders,
		ConfirmationDepth: 6,
		PoolLimit:         kittiesDAGSenders,
	}
	return chain.New(ccfg, core.NewHeaderStore(), func(db *state.DB) {
		for s := 0; s < kittiesDAGSenders; s++ {
			db.AddBalance(keys.Deterministic(uint64(s+1)).Address(), u256.FromUint64(applyBlockFund))
		}
		db.CreateContract(kittiesBreedAddr, kittiesBreedCode)
		for i := uint64(1); i <= 64; i++ {
			var key, val evm.Word
			binary.BigEndian.PutUint64(key[24:32], i)
			binary.BigEndian.PutUint64(val[24:32], 1000+i)
			db.SetStorage(kittiesBreedAddr, key, val)
		}
	})
}

// buildKittiesDAGTxs returns the 4-generation × 32-breed tournament block:
// generation 1 breeds the genesis promo kitties pairwise, later generations
// breed the previous generation's children. 128 distinct senders, so only
// the data DAG orders the transactions.
func buildKittiesDAGTxs() ([]*types.Transaction, error) {
	sign := func(sender uint64, data []byte) (*types.Transaction, error) {
		tx := &types.Transaction{
			ChainID:  1,
			Nonce:    0,
			Kind:     types.TxCall,
			To:       kittiesBreedAddr,
			GasLimit: 1_000_000,
			GasPrice: u256.FromUint64(2),
			Data:     data,
		}
		if _, err := tx.Sign(keys.Deterministic(sender)); err != nil {
			return nil, err
		}
		return types.DecodeTransaction(tx.Encode())
	}
	var dag []*types.Transaction
	for gen := 1; gen <= 4; gen++ {
		for j := 0; j < 32; j++ {
			var p1, p2 uint64
			if gen == 1 {
				p1, p2 = uint64(2*j+1), uint64(2*j+2)
			} else {
				p1 = uint64(100*(gen-1) + j)
				p2 = uint64(100*(gen-1) + (j+1)%32)
			}
			tx, err := sign(uint64(1+32*(gen-1)+j), kittiesBreedData(p1, p2, uint64(100*gen+j)))
			if err != nil {
				return nil, err
			}
			dag = append(dag, tx)
		}
	}
	return dag, nil
}
