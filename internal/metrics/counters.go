package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a set of named monotonic event counters. The chaos tooling
// uses one shared set per universe to surface fault-injection and recovery
// events (message drops, duplicates, relayer retries, recoveries, timed-out
// moves) next to the throughput/latency metrics.
//
// A mutex makes every method safe for concurrent use. One set is shared by
// reference across a universe (movers, links, header stores and a folding
// Registry all hold it), and the type cannot know which goroutines those
// holders run on; the discrete-event simulation happens to use one, so
// the lock is uncontended there.
type Counters struct {
	mu   sync.Mutex
	vals map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]uint64)}
}

// Inc adds one to the named counter, creating it at zero first if needed.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds n to the named counter.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	c.vals[name] += n
	c.mu.Unlock()
}

// Get returns the named counter's value (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[name]
}

// Names returns every counter name in sorted order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.vals))
	for name := range c.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.vals))
	for name, v := range c.vals {
		out[name] = v
	}
	return out
}

// Sum returns the total of every counter whose name starts with prefix
// (e.g. Sum("relay.") for all relayer events).
func (c *Counters) Sum(prefix string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for name, v := range c.vals {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// String renders the counters as an aligned two-column table.
func (c *Counters) String() string {
	t := NewTable("counter", "value")
	for _, name := range c.Names() {
		t.AddRow(name, fmt.Sprintf("%d", c.Get(name)))
	}
	return t.String()
}
