// Package tendermint implements the BFT consensus of the Burrow-like chain:
// a propose/prevote/precommit state machine with 2f+1 quorums and rotating
// proposers, executed by real validator processes exchanging messages over
// the simulated WAN (paper §II, §VI).
//
// The implementation captures the protocol structure that the paper's
// evaluation depends on — commit latency is one proposal broadcast plus two
// voting rounds over the inter-region latency distribution, and blocks are
// spaced by a configured interval (5 s in the experiments) — while omitting
// the full Tendermint locking rules needed against equivocating proposers
// (validators here are honest-or-crashed, the failure model the paper's
// cluster exhibits).
package tendermint

import (
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
)

// App is the replicated application: the chain executor. Propose is invoked
// on the current proposer only; Commit exactly once per height, at the
// simulated time the first validator observes a precommit quorum.
type App interface {
	// Propose returns the payload (an encoded tx batch) for height.
	Propose(height uint64) []byte
	// Commit applies the decided payload for height.
	Commit(height uint64, payload []byte)
}

// Config tunes a validator cluster.
type Config struct {
	// Interval is the wait between a commit and the next proposal (the
	// paper configures 5 s).
	Interval time.Duration
	// ProposeTimeout bounds waiting for a proposal before moving to the
	// next round (and proposer).
	ProposeTimeout time.Duration
	// MaxRoundTimeout caps the per-round timeout growth. Without a cap a
	// long partition drives the round count — and with it the linear
	// timeout — so high that the cluster waits minutes before retrying
	// after the partition heals. Zero means uncapped.
	MaxRoundTimeout time.Duration
}

// DefaultConfig returns the experiment configuration of §VI.
func DefaultConfig() Config {
	return Config{
		Interval:        5 * time.Second,
		ProposeTimeout:  2 * time.Second,
		MaxRoundTimeout: 30 * time.Second,
	}
}

// Cluster is one shard's validator set plus its replicated application.
// Consensus runs on every validator; the deterministic payload execution
// runs once, on the first commit observation (re-execution on the other
// validators would be byte-identical, so the simulation skips it).
type Cluster struct {
	cfg        Config
	sched      *simclock.Scheduler
	net        simnet.Transport
	app        App
	validators []*Validator
	committed  map[uint64]bool

	commitTimes map[uint64]time.Duration

	counters *metrics.Counters
	evidence []Evidence
}

// Evidence records one detected equivocation: a validator observed two
// conflicting messages from the same sender for the same (height, round).
// Detection is ignore-and-record — the conflicting message is discarded and
// consensus continues; it never stalls on a misbehaving peer.
type Evidence struct {
	// Proposal distinguishes proposal equivocation from vote equivocation.
	Proposal bool
	// Kind is the vote kind for vote equivocation (zero for proposals).
	Kind     voteKind
	Height   uint64
	Round    int
	From     int // equivocating validator index
	Detector int // validator that observed the conflict
}

// ByzantineBehavior switches on adversarial actions for one validator. The
// zero value is honest. Byzantine validators stay within the f < n/3 bound
// the protocol tolerates: they equivocate but cannot forge other
// validators' messages.
type ByzantineBehavior struct {
	// EquivocateProposals makes the validator, when it is the proposer,
	// send the honest payload to half its peers and a conflicting
	// (junk-extended, hence undecodable) twin to the other half.
	EquivocateProposals bool
	// EquivocateVotes makes the validator send conflicting prevotes and
	// precommits (genuine hash to half its peers, a flipped hash to the
	// rest).
	EquivocateVotes bool
}

// SetByzantine configures validator i's adversarial behavior.
func (c *Cluster) SetByzantine(i int, b ByzantineBehavior) {
	c.validators[i].byz = b
}

// Observe mirrors Byzantine-detection events ("byzantine.equivocation.*",
// "byzantine.badproposer") into the shared counter set.
func (c *Cluster) Observe(m *metrics.Counters) { c.counters = m }

// Evidence returns all recorded equivocation evidence, in detection order.
func (c *Cluster) Evidence() []Evidence { return c.evidence }

func (c *Cluster) inc(name string) {
	if c.counters != nil {
		c.counters.Inc(name)
	}
}

func (c *Cluster) noteEquivocation(ev Evidence) {
	if ev.Proposal {
		c.inc("byzantine.equivocation.proposal")
	} else {
		c.inc("byzantine.equivocation.vote")
	}
	c.evidence = append(c.evidence, ev)
}

// NewCluster creates n validators on the given network nodes and regions.
// Nodes must already be distinct ids; regions assigns each validator's
// placement.
func NewCluster(sched *simclock.Scheduler, net simnet.Transport, app App,
	cfg Config, ids []simnet.NodeID, regions []simnet.Region) (*Cluster, error) {
	if len(ids) == 0 || len(ids) != len(regions) {
		return nil, fmt.Errorf("tendermint: need matching ids and regions, got %d/%d", len(ids), len(regions))
	}
	c := &Cluster{
		cfg:         cfg,
		sched:       sched,
		net:         net,
		app:         app,
		committed:   make(map[uint64]bool),
		commitTimes: make(map[uint64]time.Duration),
	}
	c.validators = make([]*Validator, len(ids))
	for i, id := range ids {
		v := &Validator{
			cluster:   c,
			id:        id,
			index:     i,
			n:         len(ids),
			votes:     make(map[voteKey]map[int]bool),
			firstSeen: make(map[evKey]*seenRec),
		}
		c.validators[i] = v
		if err := net.Register(id, regions[i], func(from simnet.NodeID, payload any) {
			v.handle(payload)
		}); err != nil {
			return nil, fmt.Errorf("tendermint: register validator %d: %w", i, err)
		}
	}
	return c, nil
}

// Start launches consensus at height 1 on every validator.
func (c *Cluster) Start() {
	for _, v := range c.validators {
		v.startHeight(1)
	}
}

// Quorum returns the vote threshold (2f+1 out of n = 3f+1; for arbitrary n,
// the smallest integer strictly greater than 2n/3).
func (c *Cluster) Quorum() int { return 2*len(c.validators)/3 + 1 }

// CrashValidator stops a validator (it neither sends nor receives).
func (c *Cluster) CrashValidator(i int) {
	c.net.SetNodeDown(c.validators[i].id, true)
	c.validators[i].crashed = true
}

// RestartValidator revives a crashed validator: its volatile consensus
// state (votes, buffered messages) is lost, and it rejoins at the height
// after the highest commit the replicated application knows, catching up
// on the current height via its peers' traffic.
func (c *Cluster) RestartValidator(i int) {
	v := c.validators[i]
	if !v.crashed {
		return
	}
	c.net.SetNodeDown(v.id, false)
	v.crashed = false
	v.votes = make(map[voteKey]map[int]bool)
	v.firstSeen = make(map[evKey]*seenRec)
	v.pending = nil
	v.startHeight(c.CommittedHeight() + 1)
}

// ScheduleCrashRestart crashes validator i at simulated time `at` and
// restarts it at `restartAt` (restartAt ≤ at leaves it down).
func (c *Cluster) ScheduleCrashRestart(i int, at, restartAt time.Duration) {
	c.sched.At(at, func() { c.CrashValidator(i) })
	if restartAt > at {
		c.sched.At(restartAt, func() { c.RestartValidator(i) })
	}
}

// NodeIDs returns each validator's network node id, in validator order —
// fault schedules (partitions, crash-restarts) target these.
func (c *Cluster) NodeIDs() []simnet.NodeID {
	ids := make([]simnet.NodeID, len(c.validators))
	for i, v := range c.validators {
		ids[i] = v.id
	}
	return ids
}

// CommittedHeight returns the highest committed height.
func (c *Cluster) CommittedHeight() uint64 {
	var max uint64
	for h := range c.committed {
		if h > max {
			max = h
		}
	}
	return max
}

// CommitTime returns the simulated time at which a height committed.
func (c *Cluster) CommitTime(height uint64) (time.Duration, bool) {
	t, ok := c.commitTimes[height]
	return t, ok
}

// commit applies the payload once per height.
func (c *Cluster) commit(height uint64, payload []byte) {
	if c.committed[height] {
		return
	}
	c.committed[height] = true
	c.commitTimes[height] = c.sched.Now()
	c.app.Commit(height, payload)
}

// message kinds exchanged between validators.
type msgProposal struct {
	Height  uint64
	Round   int
	Payload []byte
	// From is the claimed sender index; receivers check it against the
	// round's legitimate proposer and use it to key equivocation evidence.
	From int
}

type voteKind uint8

const (
	votePrevote voteKind = iota + 1
	votePrecommit
)

type msgVote struct {
	Kind        voteKind
	Height      uint64
	Round       int
	PayloadHash hashing.Hash
	From        int
}

type voteKey struct {
	kind   voteKind
	height uint64
	round  int
	hash   hashing.Hash
}

// evKey identifies the slot a sender may speak in exactly once: one
// proposal (or one vote of each kind) per (height, round, sender).
type evKey struct {
	proposal bool
	kind     voteKind
	height   uint64
	round    int
	from     int
}

// seenRec remembers the first message hash seen in a slot; reported
// ensures each conflicting slot is converted to evidence at most once per
// detector, so a flood of conflicting copies cannot grow evidence
// unboundedly.
type seenRec struct {
	hash     hashing.Hash
	reported bool
}

// Validator is one consensus participant.
type Validator struct {
	cluster *Cluster
	id      simnet.NodeID
	index   int
	n       int
	crashed bool

	height       uint64
	round        int
	proposal     []byte
	proposalHash hashing.Hash
	hasProposal  bool
	prevoted     bool
	precommitted bool
	decided      bool

	votes     map[voteKey]map[int]bool
	firstSeen map[evKey]*seenRec
	pending   []any // messages for heights/rounds not yet started
	byz       ByzantineBehavior
}

// noteFirstSeen enforces one-message-per-slot: the first hash in a slot is
// remembered, identical re-deliveries (network duplicates) pass, and a
// conflicting hash records equivocation evidence and is rejected.
func (v *Validator) noteFirstSeen(key evKey, h hashing.Hash) bool {
	rec, ok := v.firstSeen[key]
	if !ok {
		v.firstSeen[key] = &seenRec{hash: h}
		return true
	}
	if rec.hash == h {
		return true
	}
	if !rec.reported {
		rec.reported = true
		v.cluster.noteEquivocation(Evidence{
			Proposal: key.proposal, Kind: key.kind,
			Height: key.height, Round: key.round,
			From: key.from, Detector: v.index,
		})
	}
	return false
}

// proposerIndex implements round-robin proposer rotation.
func proposerIndex(height uint64, round, n int) int {
	return int((height + uint64(round)) % uint64(n))
}

func (v *Validator) startHeight(h uint64) {
	if v.crashed {
		return
	}
	v.height = h
	v.round = 0
	v.startRound()
}

// drainPending replays buffered messages that have become current.
func (v *Validator) drainPending() {
	pending := v.pending
	v.pending = nil
	for _, msg := range pending {
		v.handle(msg)
	}
}

func (v *Validator) startRound() {
	v.proposal = nil
	v.hasProposal = false
	v.prevoted = false
	v.precommitted = false
	v.decided = false

	if proposerIndex(v.height, v.round, v.n) == v.index {
		payload := v.cluster.app.Propose(v.height)
		msg := msgProposal{Height: v.height, Round: v.round, Payload: payload, From: v.index}
		if v.byz.EquivocateProposals {
			// Conflicting twin: the honest payload extended with junk, sent
			// alongside the genuine proposal to half the peers. Whichever
			// copy arrives first wins that peer's prevote, the second is
			// recorded as equivocation evidence; at worst the split vote
			// costs this round and the timeout rotates to an honest
			// proposer — safety is never at risk, only latency.
			twin := msg
			twin.Payload = append(append([]byte(nil), payload...), 0xDE, 0xAD, byte(v.height))
			v.broadcastEquivocating(msg, twin)
			v.handle(msg)
		} else {
			v.broadcast(msg)
			v.handle(msg) // deliver to self
		}
	}
	// Round timeout: if this round does not decide in time, try the next
	// proposer. Grows linearly with the round to eventually outwait WAN
	// latency under crash faults, capped so liveness recovers promptly
	// after long partitions.
	height, round := v.height, v.round
	timeout := v.cluster.cfg.ProposeTimeout * time.Duration(round+1)
	if max := v.cluster.cfg.MaxRoundTimeout; max > 0 && timeout > max {
		timeout = max
	}
	v.cluster.sched.After(timeout, func() {
		if v.crashed || v.decided || v.height != height || v.round != round {
			return
		}
		v.round++
		v.startRound()
	})
	v.drainPending()
}

func (v *Validator) broadcast(msg any) {
	for _, other := range v.cluster.validators {
		if other.index != v.index {
			v.cluster.net.Send(v.id, other.id, msg)
		}
	}
}

// broadcastEquivocating sends the genuine message to every peer and the
// conflicting twin as an extra message to odd-indexed peers. Sending both
// to the same receivers is what makes the conflict observable — and
// convertible to evidence — rather than a silent split vote.
func (v *Validator) broadcastEquivocating(genuine, twin any) {
	for _, other := range v.cluster.validators {
		if other.index == v.index {
			continue
		}
		v.cluster.net.Send(v.id, other.id, genuine)
		if other.index%2 == 1 {
			v.cluster.net.Send(v.id, other.id, twin)
		}
	}
}

// castVote broadcasts a vote and delivers it to self; a vote-equivocating
// validator also sends a conflicting hash to half its peers.
func (v *Validator) castVote(vote msgVote) {
	if v.byz.EquivocateVotes {
		twin := vote
		twin.PayloadHash[0] ^= 0xFF
		v.broadcastEquivocating(vote, twin)
		v.onVote(vote)
		return
	}
	v.broadcast(vote)
	v.onVote(vote)
}

// catchUp simulates block sync: a validator that sees traffic for a future
// height while its own height has already committed cluster-wide jumps
// forward (a real node would fetch the missed blocks from its peers).
// Without this, a validator whose quorum votes were lost to the WAN stalls
// behind forever and erodes the quorum at the current height — under
// message loss the cluster would grind to a halt within a few blocks.
func (v *Validator) catchUp(msgHeight uint64) {
	if v.decided || msgHeight <= v.height || !v.cluster.committed[v.height] {
		return
	}
	v.startHeight(v.cluster.CommittedHeight() + 1)
}

func (v *Validator) handle(payload any) {
	if v.crashed {
		return
	}
	switch msg := payload.(type) {
	case msgProposal:
		v.catchUp(msg.Height)
		if msg.Height > v.height || (msg.Height == v.height && msg.Round > v.round) {
			v.pending = append(v.pending, msg)
			return
		}
		v.onProposal(msg)
	case msgVote:
		v.catchUp(msg.Height)
		if msg.Height > v.height {
			v.pending = append(v.pending, msg)
			return
		}
		v.onVote(msg)
	}
}

func (v *Validator) onProposal(msg msgProposal) {
	if msg.Height != v.height || msg.Round != v.round {
		return
	}
	// Only the round's legitimate proposer may propose; anything else is a
	// forged injection (record and ignore, never stall).
	if msg.From < 0 || msg.From >= v.n || proposerIndex(msg.Height, msg.Round, v.n) != msg.From {
		v.cluster.inc("byzantine.badproposer")
		return
	}
	h := hashing.Sum(msg.Payload)
	if !v.noteFirstSeen(evKey{proposal: true, height: msg.Height, round: msg.Round, from: msg.From}, h) {
		return
	}
	if v.hasProposal {
		return
	}
	v.proposal = msg.Payload
	v.proposalHash = h
	v.hasProposal = true
	if !v.prevoted {
		v.prevoted = true
		v.castVote(msgVote{
			Kind: votePrevote, Height: v.height, Round: v.round,
			PayloadHash: v.proposalHash, From: v.index,
		})
	}
}

func (v *Validator) onVote(msg msgVote) {
	if msg.Height != v.height {
		return
	}
	if msg.From < 0 || msg.From >= v.n {
		v.cluster.inc("byzantine.badvoter")
		return
	}
	// One vote of each kind per (height, round, sender): a conflicting
	// double-vote is recorded as equivocation evidence and excluded from
	// quorum counting, so a Byzantine voter cannot help two different
	// payloads toward quorum in the same round.
	if !v.noteFirstSeen(evKey{kind: msg.Kind, height: msg.Height, round: msg.Round, from: msg.From}, msg.PayloadHash) {
		return
	}
	key := voteKey{kind: msg.Kind, height: msg.Height, round: msg.Round, hash: msg.PayloadHash}
	set := v.votes[key]
	if set == nil {
		set = make(map[int]bool)
		v.votes[key] = set
	}
	set[msg.From] = true
	quorum := v.cluster.Quorum()

	switch msg.Kind {
	case votePrevote:
		if len(set) >= quorum && v.hasProposal && msg.PayloadHash == v.proposalHash && !v.precommitted {
			v.precommitted = true
			v.castVote(msgVote{
				Kind: votePrecommit, Height: v.height, Round: msg.Round,
				PayloadHash: v.proposalHash, From: v.index,
			})
		}
	case votePrecommit:
		if len(set) >= quorum && v.hasProposal && msg.PayloadHash == v.proposalHash && !v.decided {
			v.decided = true
			v.cluster.commit(v.height, v.proposal)
			height := v.height
			v.cluster.sched.After(v.cluster.cfg.Interval, func() {
				if !v.crashed && v.height == height {
					v.startHeight(height + 1)
				}
			})
		}
	}
}

// WireTamper returns a simnet payload tamper for consensus traffic:
// proposals get their payload bytes corrupted with simnet.DefaultTamper and
// votes get a flipped payload-hash byte; other message kinds pass through
// untouched. Hardened validators must survive both — corrupted proposals
// split the prevote (healed by the round timeout) and corrupted votes look
// like equivocation by the claimed sender (recorded, ignored).
func WireTamper() simnet.PayloadTamper {
	return func(rng *rand.Rand, payload any) (any, bool) {
		switch msg := payload.(type) {
		case msgProposal:
			msg.Payload = simnet.DefaultTamper(rng, msg.Payload)
			return msg, true
		case msgVote:
			msg.PayloadHash[rng.Intn(len(msg.PayloadHash))] ^= byte(1 + rng.Intn(255))
			return msg, true
		}
		return payload, false
	}
}
