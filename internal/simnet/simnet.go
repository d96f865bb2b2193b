// Package simnet simulates the wide-area network of the paper's deployment:
// nodes placed in 14 cloud regions on four continents, with inter-region
// latencies modeled on the measurements the paper borrows from the Red
// Belly evaluation [27], plus deterministic jitter, message drops, and
// partitions for fault-injection tests.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

// NodeID identifies a network endpoint.
type NodeID uint64

// Handler receives a delivered message.
type Handler func(from NodeID, payload any)

// Region is an index into the latency matrix.
type Region int

// RegionCount is the number of modeled regions.
const RegionCount = 14

// regionNames document the modeled placement (paper §VI: 14 regions on four
// continents).
var regionNames = [RegionCount]string{
	"us-east", "us-west", "canada", "sao-paulo",
	"ireland", "london", "frankfurt", "paris",
	"mumbai", "singapore", "tokyo", "seoul",
	"sydney", "osaka",
}

// Name returns the region's label.
func (r Region) Name() string {
	if r < 0 || r >= RegionCount {
		return "unknown"
	}
	return regionNames[r]
}

// oneWayMillis is the modeled one-way latency matrix in milliseconds,
// derived from public inter-region RTT measurements (values are RTT/2,
// rounded). Intra-region latency is 1 ms (LAN with emulated WAN delays).
var oneWayMillis = [RegionCount][RegionCount]int{
	{1, 31, 8, 57, 34, 37, 44, 39, 91, 106, 73, 89, 98, 75},
	{31, 1, 29, 86, 64, 68, 73, 69, 111, 85, 54, 67, 70, 56},
	{8, 29, 1, 63, 36, 41, 46, 42, 96, 108, 76, 92, 105, 78},
	{57, 86, 63, 1, 88, 93, 98, 94, 151, 163, 129, 145, 155, 131},
	{34, 64, 36, 88, 1, 6, 12, 9, 61, 87, 105, 120, 128, 107},
	{37, 68, 41, 93, 6, 1, 8, 5, 56, 83, 111, 125, 131, 113},
	{44, 73, 46, 98, 12, 8, 1, 4, 55, 81, 117, 131, 138, 119},
	{39, 69, 42, 94, 9, 5, 4, 1, 52, 80, 113, 127, 140, 115},
	{91, 111, 96, 151, 61, 56, 55, 52, 1, 32, 60, 77, 111, 62},
	{106, 85, 108, 163, 87, 83, 81, 80, 32, 1, 34, 49, 46, 36},
	{73, 54, 76, 129, 105, 111, 117, 113, 60, 34, 1, 17, 52, 5},
	{89, 67, 92, 145, 120, 125, 131, 127, 77, 49, 17, 1, 67, 15},
	{98, 70, 105, 155, 128, 131, 138, 140, 111, 46, 52, 67, 1, 54},
	{75, 56, 78, 131, 107, 113, 119, 115, 62, 36, 5, 15, 54, 1},
}

// Latency returns the modeled one-way delay between two regions.
func Latency(a, b Region) time.Duration {
	return time.Duration(oneWayMillis[a][b]) * time.Millisecond
}

// Config tunes network behavior.
type Config struct {
	// JitterFrac adds up to ±JitterFrac of the base latency, drawn from the
	// seeded RNG. Zero disables jitter.
	JitterFrac float64
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// ReorderFrac is the probability a message is held back by an extra
	// random delay of up to MaxReorderDelay, letting later traffic overtake.
	ReorderFrac float64
	// MaxReorderDelay bounds the reordering hold-back (defaults to the base
	// latency when zero).
	MaxReorderDelay time.Duration
	// CorruptRate is the probability a delivered copy is tampered via the
	// network's Tamper hook. Copies with no Tamper installed, or that the
	// hook declines, are delivered intact.
	CorruptRate float64
	// Tamper corrupts an in-memory WAN payload (WAN messages are typed
	// values, not bytes, so corruption is protocol-aware). It receives a
	// per-corruption derived RNG and must not mutate the original payload.
	// It returns the corrupted payload and true, or (payload, false) for
	// message kinds it does not corrupt.
	Tamper PayloadTamper
	// Seed makes delivery timing reproducible.
	Seed int64
}

// PayloadTamper corrupts an in-memory WAN message. See Config.Tamper.
type PayloadTamper func(rng *rand.Rand, payload any) (any, bool)

// faults extracts the global per-message fault configuration.
func (c Config) faults() LinkFaults {
	return LinkFaults{
		DropRate:        c.DropRate,
		DupRate:         c.DupRate,
		JitterFrac:      c.JitterFrac,
		ReorderFrac:     c.ReorderFrac,
		MaxReorderDelay: c.MaxReorderDelay,
		CorruptRate:     c.CorruptRate,
	}
}

// Network delivers messages between registered nodes over the simulated
// clock. It is single-threaded, like everything on the scheduler.
type Network struct {
	sched *simclock.Scheduler
	cfg   Config
	rng   *rand.Rand

	nodes      map[NodeID]*nodeInfo
	down       map[NodeID]bool
	cut        map[[2]NodeID]bool
	linkFaults map[[2]NodeID]LinkFaults

	delivered  uint64
	dropped    uint64
	duplicated uint64
	reordered  uint64
	corrupted  uint64

	counters *metrics.Counters
	reg      *metrics.Registry // optional; feeds in-flight gauges
	// gInflight/gPeak are the in-flight gauge names ("wan.inflight" by
	// default), precomputed so the per-message send/delivery paths never
	// build strings. Universes with one Network per chain give each a
	// per-chain label, so each chain's WAN reports its own high-water mark.
	gInflight, gPeak string
}

type nodeInfo struct {
	region  Region
	handler Handler
}

// New returns an empty network whose deliveries run as events on sched.
func New(sched *simclock.Scheduler, cfg Config) *Network {
	return &Network{
		sched:      sched,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nodes:      make(map[NodeID]*nodeInfo),
		down:       make(map[NodeID]bool),
		cut:        make(map[[2]NodeID]bool),
		linkFaults: make(map[[2]NodeID]LinkFaults),
		gInflight:  "wan.inflight",
		gPeak:      "wan.inflight.peak",
	}
}

// Observe mirrors the network's fault events into the shared counter set
// under the "wan." prefix.
func (n *Network) Observe(c *metrics.Counters) { n.counters = c }

// SetRegistry attaches an observability registry: the network then tracks
// the number of WAN messages in flight ("<label>.inflight") and its
// high-water mark ("<label>.inflight.peak"). Updates happen inside
// send/delivery paths that already run, so enabling them cannot perturb
// simulated results.
func (n *Network) SetRegistry(reg *metrics.Registry) { n.reg = reg }

// SetGaugeLabel overrides the gauge name prefix (default "wan"). Per-chain
// networks use "wan.<chain>" so their in-flight peaks never share a key.
func (n *Network) SetGaugeLabel(label string) {
	n.gInflight = label + ".inflight"
	n.gPeak = label + ".inflight.peak"
}

func (n *Network) count(event string, field *uint64) {
	*field++
	if n.counters != nil {
		n.counters.Inc("wan." + event)
	}
}

// Register adds a node in the given region. Registering an existing id
// replaces its handler (used to restart crashed nodes).
func (n *Network) Register(id NodeID, region Region, h Handler) error {
	if region < 0 || region >= RegionCount {
		return fmt.Errorf("simnet: invalid region %d", region)
	}
	if h == nil {
		return fmt.Errorf("simnet: nil handler for node %d", id)
	}
	n.nodes[id] = &nodeInfo{region: region, handler: h}
	return nil
}

// RegionOf returns the region a node was registered in.
func (n *Network) RegionOf(id NodeID) (Region, bool) {
	info, ok := n.nodes[id]
	if !ok {
		return 0, false
	}
	return info.region, true
}

// Send schedules delivery of payload from one node to another, applying the
// latency matrix, jitter, drops, partitions, and node crashes. Messages to
// unknown nodes are dropped. Sending to self delivers after the intra-
// region latency (loopback through the local stack).
func (n *Network) Send(from, to NodeID, payload any) {
	src, okFrom := n.nodes[from]
	dst, okTo := n.nodes[to]
	if !okFrom || !okTo {
		n.count("dropped", &n.dropped)
		return
	}
	if n.down[from] || n.cut[linkKey(from, to)] {
		n.count("dropped", &n.dropped)
		return
	}
	faults := n.cfg.faults()
	if override, ok := n.linkFaults[linkKey(from, to)]; ok {
		faults = override
	}
	if faults.DropRate > 0 && n.rng.Float64() < faults.DropRate {
		n.count("dropped", &n.dropped)
		return
	}
	copies := 1
	if faults.DupRate > 0 && n.rng.Float64() < faults.DupRate {
		copies = 2
		n.count("duplicated", &n.duplicated)
	}
	base := Latency(src.region, dst.region)
	for i := 0; i < copies; i++ {
		msg := payload
		if faults.CorruptRate > 0 && n.rng.Float64() < faults.CorruptRate {
			if n.cfg.Tamper != nil {
				// A derived per-corruption RNG keeps the network's fault
				// stream independent of how many draws the tamper makes
				// (which may depend on non-deterministic payload content).
				trng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(n.corrupted)*0x6A09E667F3BCC909 ^ 0x2545F4914F6CDD1D))
				if tampered, ok := n.cfg.Tamper(trng, payload); ok {
					msg = tampered
					n.count("corrupted", &n.corrupted)
					if n.counters != nil {
						n.counters.Inc("byzantine.corrupted")
					}
				}
			}
		}
		delay := base
		if faults.JitterFrac > 0 {
			jitter := (n.rng.Float64()*2 - 1) * faults.JitterFrac
			delay = time.Duration(float64(delay) * (1 + jitter))
		}
		if faults.ReorderFrac > 0 && n.rng.Float64() < faults.ReorderFrac {
			max := faults.MaxReorderDelay
			if max <= 0 {
				max = base
			}
			if max > 0 {
				delay += time.Duration(n.rng.Int63n(int64(max) + 1))
			}
			n.count("reordered", &n.reordered)
		}
		if n.reg.Enabled() {
			n.reg.AddGauge(n.gInflight, 1)
			n.reg.MaxGauge(n.gPeak, n.reg.Gauge(n.gInflight))
		}
		n.sched.After(delay, func() {
			if n.reg.Enabled() {
				n.reg.AddGauge(n.gInflight, -1)
			}
			// Down-state and handler are re-checked at delivery time so crashes
			// that happen while the message is in flight take effect.
			info, ok := n.nodes[to]
			if !ok || n.down[to] {
				n.count("dropped", &n.dropped)
				return
			}
			n.count("delivered", &n.delivered)
			info.handler(from, msg)
		})
	}
}

// Broadcast sends payload from one node to every other registered node.
func (n *Network) Broadcast(from NodeID, payload any) {
	for id := range n.nodes {
		if id != from {
			n.Send(from, id, payload)
		}
	}
}

// SetNodeDown crashes or revives a node; a down node neither sends nor
// receives.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	n.down[id] = down
}

// SetLinkCut severs or restores the (bidirectional) link between two nodes.
func (n *Network) SetLinkCut(a, b NodeID, cut bool) {
	n.cut[linkKey(a, b)] = cut
	n.cut[linkKey(b, a)] = cut
}

// SetLinkFaults overrides the fault configuration of the (bidirectional)
// link between two nodes, replacing the global Config faults for it.
func (n *Network) SetLinkFaults(a, b NodeID, f LinkFaults) {
	n.linkFaults[linkKey(a, b)] = f
	n.linkFaults[linkKey(b, a)] = f
}

// ClearLinkFaults removes a per-link fault override.
func (n *Network) ClearLinkFaults(a, b NodeID) {
	delete(n.linkFaults, linkKey(a, b))
	delete(n.linkFaults, linkKey(b, a))
}

// SchedulePartition cuts every link between the given group and the rest of
// the network at simulated time `at` and heals it at `healAt`. Nodes are
// resolved at fire time, so nodes registered after the call still partition.
func (n *Network) SchedulePartition(at, healAt time.Duration, group ...NodeID) {
	inGroup := make(map[NodeID]bool, len(group))
	for _, id := range group {
		inGroup[id] = true
	}
	setCut := func(cut bool) {
		for id := range n.nodes {
			if inGroup[id] {
				continue
			}
			for _, g := range group {
				n.SetLinkCut(g, id, cut)
			}
		}
	}
	n.sched.At(at, func() { setCut(true) })
	if healAt > at {
		n.sched.At(healAt, func() { setCut(false) })
	}
}

// ScheduleCrash takes a node down at simulated time `at` and restarts it at
// `restartAt`. A restartAt ≤ at leaves the node down permanently.
func (n *Network) ScheduleCrash(id NodeID, at, restartAt time.Duration) {
	n.sched.At(at, func() { n.SetNodeDown(id, true) })
	if restartAt > at {
		n.sched.At(restartAt, func() { n.SetNodeDown(id, false) })
	}
}

// Stats returns delivered and dropped message counts.
func (n *Network) Stats() (delivered, dropped uint64) {
	return n.delivered, n.dropped
}

// FaultStats returns the full delivery event counts, including duplicates
// and reordered messages.
func (n *Network) FaultStats() LinkStats {
	return LinkStats{
		Delivered:  n.delivered,
		Dropped:    n.dropped,
		Duplicated: n.duplicated,
		Reordered:  n.reordered,
		Corrupted:  n.corrupted,
	}
}

func linkKey(a, b NodeID) [2]NodeID { return [2]NodeID{a, b} }
