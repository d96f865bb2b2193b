package types

import (
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Header is a block header. It is a few hundred bytes — the constant-size
// artifact light clients download to verify Merkle proofs of peer chains
// (paper §III-A).
type Header struct {
	ChainID    hashing.ChainID
	Height     uint64
	ParentHash hashing.Hash
	// StateRoot commits to the world state. On the Ethereum-like chain it
	// is the root *after* executing this block; on the Burrow-like chain it
	// is the root after block Height-1, reproducing Tendermint's lagging
	// app-hash rule that forces the two-block wait of §VI.
	StateRoot hashing.Hash
	TxRoot    hashing.Hash
	Time      uint64 // unix seconds, simulated clock
	Proposer  hashing.Address
	GasUsed   uint64
	GasLimit  uint64
	// Difficulty and Nonce are used by the PoW chain; zero on BFT chains.
	Difficulty u256.Int
	Nonce      uint64
}

// Encode returns the canonical header encoding.
func (h *Header) Encode() []byte {
	w := codec.NewWriter(192)
	w.WriteUvarint(uint64(h.ChainID))
	w.WriteUvarint(h.Height)
	w.WriteHash(h.ParentHash)
	w.WriteHash(h.StateRoot)
	w.WriteHash(h.TxRoot)
	w.WriteUvarint(h.Time)
	w.WriteAddress(h.Proposer)
	w.WriteUvarint(h.GasUsed)
	w.WriteUvarint(h.GasLimit)
	w.WriteWord(h.Difficulty.Bytes32())
	w.WriteUvarint(h.Nonce)
	return w.Bytes()
}

// DecodeHeader parses an encoded header.
func DecodeHeader(b []byte) (*Header, error) {
	r := codec.NewReader(b)
	var h Header
	h.ChainID = hashing.ChainID(r.ReadUvarint())
	h.Height = r.ReadUvarint()
	h.ParentHash = r.ReadHash()
	h.StateRoot = r.ReadHash()
	h.TxRoot = r.ReadHash()
	h.Time = r.ReadUvarint()
	h.Proposer = r.ReadAddress()
	h.GasUsed = r.ReadUvarint()
	h.GasLimit = r.ReadUvarint()
	d := r.ReadWord()
	h.Difficulty = u256.FromBytes(d[:])
	h.Nonce = r.ReadUvarint()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode header: %w", err)
	}
	return &h, nil
}

// Hash returns the block hash.
func (h *Header) Hash() hashing.Hash { return hashing.Sum(h.Encode()) }

// Block is a header together with its transaction body.
type Block struct {
	Header *Header
	Txs    []*Transaction
}

// TxRootOf computes the commitment over an ordered transaction list from
// the transactions' ids, in block order.
func TxRootOf(ids []hashing.Hash) hashing.Hash {
	w := codec.NewWriter(32 * (len(ids) + 1))
	w.WriteUvarint(uint64(len(ids)))
	for _, id := range ids {
		w.WriteHash(id)
	}
	return hashing.Sum(w.Bytes())
}

// ReceiptStatus reports how a transaction executed.
type ReceiptStatus uint8

const (
	// ReceiptSuccess means the transaction executed without error.
	ReceiptSuccess ReceiptStatus = iota + 1
	// ReceiptFailed means execution aborted (reverted, out of gas, or a
	// protocol rule such as a locked contract); the fee was still charged.
	ReceiptFailed
)

// Receipt records the outcome of one executed transaction.
type Receipt struct {
	TxID    hashing.Hash
	Status  ReceiptStatus
	GasUsed uint64
	Logs    []*evm.Log
	// Created is the deployed contract address for TxCreate.
	Created hashing.Address
	// Err is the human-readable failure reason (empty on success). It is
	// not part of consensus state.
	Err string
}

// Succeeded reports whether the transaction executed without error.
func (r *Receipt) Succeeded() bool { return r.Status == ReceiptSuccess }
