package chain

import (
	"encoding/binary"
	"fmt"
	"time"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/pow"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/tendermint"
	"scmove/internal/types"
)

// ProposerAddress derives a deterministic address for a chain's validator
// or miner by index (simulation identities; fee recipients).
func ProposerAddress(chain hashing.ChainID, index int) hashing.Address {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(chain))
	binary.BigEndian.PutUint64(buf[8:], uint64(index))
	return hashing.AddressFromHash(hashing.SumTagged(0xbb, buf[:]))
}

// BFTNode runs a chain under Tendermint consensus: the validator cluster
// agrees on each transaction batch over the simulated WAN, and the chain
// executes the decided batch once per height.
type BFTNode struct {
	Chain   *Chain
	Cluster *tendermint.Cluster
	sched   *simclock.Scheduler
	app     *bftApp
}

// bftApp adapts Chain to the tendermint.App interface.
type bftApp struct {
	chain    *Chain
	sched    *simclock.Scheduler
	counters *metrics.Counters
}

func (a *bftApp) Propose(height uint64) []byte {
	return EncodeTxList(a.chain.ProposeBatch())
}

func (a *bftApp) Commit(height uint64, payload []byte) {
	proposer := ProposerAddress(a.chain.ChainID(), int(height)%10)
	txs, err := DecodeTxList(payload)
	if err != nil {
		// An undecodable payload reached quorum: a Byzantine proposer (or a
		// coordinated corruption) got junk decided. Safety holds — every
		// validator decided the same bytes, and every replica's DecodeTxList
		// fails identically — so commit an empty block, record the event,
		// and keep producing blocks rather than stalling or panicking. The
		// selected-but-uncommitted transactions stay in the pool for the
		// next height.
		if a.counters != nil {
			a.counters.Inc("byzantine.badpayload.committed")
		}
		txs = nil
	}
	a.chain.ApplyBlock(txs, a.sched.NowUnix(), proposer)
}

// NewBFTNode creates a chain with a validator cluster of len(ids) members
// placed in the given regions. The transport seam decides what carries
// consensus traffic: the deterministic discrete-event network by default,
// or real TCP sockets for wall-clock runs. Call Start to begin producing
// blocks.
func NewBFTNode(sched *simclock.Scheduler, net simnet.Transport, c *Chain,
	cfg tendermint.Config, ids []simnet.NodeID, regions []simnet.Region) (*BFTNode, error) {
	app := &bftApp{chain: c, sched: sched}
	cluster, err := tendermint.NewCluster(sched, net, app, cfg, ids, regions)
	if err != nil {
		return nil, fmt.Errorf("bft node: %w", err)
	}
	return &BFTNode{Chain: c, Cluster: cluster, sched: sched, app: app}, nil
}

// Start launches consensus.
func (n *BFTNode) Start() { n.Cluster.Start() }

// Observe mirrors the node's Byzantine-resilience events (equivocation
// evidence from the cluster, bad committed payloads from the app) into the
// shared counter set.
func (n *BFTNode) Observe(c *metrics.Counters) {
	n.Cluster.Observe(c)
	n.app.counters = c
}

// PoWNode runs a chain under simulated proof-of-work: blocks are produced
// at exponentially distributed intervals (15 s mean in the paper's
// configuration) by a rotating set of miners.
type PoWNode struct {
	Chain *Chain
	sched *simclock.Scheduler
	timer *pow.Timer

	minerCount int
	nextMiner  int
	stopped    bool
}

// NewPoWNode creates a PoW-driven chain with the given miner count and a
// seeded block timer.
func NewPoWNode(sched *simclock.Scheduler, c *Chain, seed int64, minerCount int) *PoWNode {
	if minerCount <= 0 {
		minerCount = 1
	}
	return &PoWNode{
		Chain:      c,
		sched:      sched,
		timer:      pow.NewTimer(seed, c.cfg.BlockInterval),
		minerCount: minerCount,
	}
}

// Start schedules block production.
func (n *PoWNode) Start() { n.scheduleNext() }

// Stop halts block production after the next tick.
func (n *PoWNode) Stop() { n.stopped = true }

func (n *PoWNode) scheduleNext() {
	n.sched.After(n.timer.Next(), func() {
		if n.stopped {
			return
		}
		miner := ProposerAddress(n.Chain.ChainID(), n.nextMiner)
		n.nextMiner = (n.nextMiner + 1) % n.minerCount
		n.Chain.ApplyBlock(n.Chain.ProposeBatch(), n.sched.NowUnix(), miner)
		n.scheduleNext()
	})
}

// ConnectHeaderRelay wires the light-client header feed from src to dst:
// every block committed on src is relayed (header plus head height) to
// dst's header store after the given network delay. Miners/validators of
// interoperating chains run exactly this kind of relay (paper §IV-A).
func ConnectHeaderRelay(sched *simclock.Scheduler, src, dst *Chain, delay time.Duration) {
	ConnectHeaderRelayVia(src, dst, simnet.NewLink(sched, delay, simnet.LinkFaults{}, 0), 1)
}

// ConnectHeaderRelayVia wires the header feed from src to dst through a
// (possibly lossy) link. Each committed block relays the last `window`
// headers plus the head height, so a dropped relay message heals as soon as
// any later one gets through — the retransmission behaviour real IBC
// relayers implement. Use a window comfortably larger than the longest
// outage, in blocks, the deployment should ride out.
func ConnectHeaderRelayVia(src, dst *Chain, link *simnet.Link, window int) {
	if window < 1 {
		window = 1
	}
	src.OnBlock(func(b *types.Block, _ []*types.Receipt) {
		head := b.Header.Height
		lo := uint64(1)
		if head > uint64(window) {
			lo = head - uint64(window) + 1
		}
		headers := make([]*types.Header, 0, head-lo+1)
		for h := lo; h <= head; h++ {
			if hdr, ok := src.HeaderAt(h); ok {
				headers = append(headers, hdr)
			}
		}
		if link.Corrupts() {
			// Corrupting links carry the wire encoding: clean copies still
			// skip serialization (encode runs lazily, only for tampered
			// copies), while corrupted copies go through the full untrusted
			// decode + ingest path and are counted and dropped on rejection.
			link.DeliverBytes(
				func() []byte { return encodeHeaderRelay(src.ChainID(), head, headers) },
				func(raw []byte, corrupted bool) {
					if !corrupted {
						if err := dst.Headers().Update(src.ChainID(), headers, head); err != nil {
							panic(fmt.Sprintf("chain: header relay %s->%s: %v", src.ChainID(), dst.ChainID(), err))
						}
						return
					}
					cid, rHead, rHeaders, err := decodeHeaderRelay(raw)
					if err != nil {
						link.NoteRejected()
						return
					}
					if err := dst.Headers().Update(cid, rHeaders, rHead); err != nil {
						link.NoteRejected()
					}
				})
			return
		}
		link.Deliver(func() {
			// Errors indicate a misconfigured relay (unknown chain); the
			// universe wiring registers params up front, so drop silently
			// is never expected — surface loudly.
			if err := dst.Headers().Update(src.ChainID(), headers, head); err != nil {
				panic(fmt.Sprintf("chain: header relay %s->%s: %v", src.ChainID(), dst.ChainID(), err))
			}
		})
	})
}

// encodeHeaderRelay serializes one relay message: source chain id, head
// height, and the relayed header window.
func encodeHeaderRelay(chain hashing.ChainID, head uint64, headers []*types.Header) []byte {
	w := codec.NewWriter(32 + 192*len(headers))
	w.WriteUvarint(uint64(chain))
	w.WriteUvarint(head)
	w.WriteUvarint(uint64(len(headers)))
	for _, h := range headers {
		w.WriteBytes(h.Encode())
	}
	return w.Bytes()
}

// decodeHeaderRelay parses an untrusted relay message.
func decodeHeaderRelay(b []byte) (hashing.ChainID, uint64, []*types.Header, error) {
	r := codec.NewReader(b)
	chain := hashing.ChainID(r.ReadUvarint())
	head := r.ReadUvarint()
	n := r.ReadUvarint()
	headers := make([]*types.Header, 0, r.CapCount(n, 16))
	for i := uint64(0); i < n; i++ {
		enc := r.ReadBytes()
		if r.Err() != nil {
			return 0, 0, nil, r.Err()
		}
		h, err := types.DecodeHeader(enc)
		if err != nil {
			return 0, 0, nil, err
		}
		headers = append(headers, h)
	}
	if err := r.Finish(); err != nil {
		return 0, 0, nil, err
	}
	return chain, head, headers, nil
}
