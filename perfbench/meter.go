package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// heapSample is how often the meter reads the live heap size (the bytes
// the last GC cycle marked live). Reading a runtime/metrics sample does not
// stop the world.
const heapSample = 5 * time.Millisecond

// meter brackets one timed region: allocation count, peak live heap and GC
// pause always, plus a CPU profile when traced.
type meter struct {
	before  runtime.MemStats
	prof    *bytes.Buffer // nil unless traced
	stop    chan struct{}
	done    sync.WaitGroup
	skipped uint64 // allocations made inside exclude

	mu     sync.Mutex
	sample []metrics.Sample
	peak   uint64
}

type memResult struct {
	mallocs  uint64 // heap allocations in the region
	heapPeak uint64 // highest live heap bytes after a GC cycle in the region
	pauseNs  uint64 // total GC stop-the-world pause in the region
}

// startMeter begins a timed region. Start it after set-up and stop it
// before the output checks.
func startMeter(traced bool) (*meter, error) {
	m := &meter{stop: make(chan struct{})}
	if traced {
		m.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&m.before)
	m.sample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	m.readHeap()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(heapSample)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.readHeap()
			}
		}
	}()
	return m, nil
}

func (m *meter) readHeap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	metrics.Read(m.sample)
	m.peak = max(m.peak, m.sample[0].Value.Uint64())
}

// settleHeap runs a GC cycle and reads the live heap it leaves. A heap that
// grows until a point is thus read at that point, not at whichever GC cycle
// the program last ran.
func (m *meter) settleHeap() {
	runtime.GC()
	m.readHeap()
}

// exclude runs f inside the region without counting its allocations. It
// serves set-up that a workload repeats during its timed region.
func (m *meter) exclude(f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	m.skipped += after.Mallocs - before.Mallocs
	return err
}

// end closes the region and returns its memory figures and, when traced,
// the CPU-ns charged to each layer.
func (m *meter) end() (memResult, map[string]int64, error) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	close(m.stop)
	m.done.Wait()
	m.settleHeap()
	res := memResult{
		mallocs:  after.Mallocs - m.before.Mallocs - m.skipped,
		heapPeak: m.peak,
		pauseNs:  after.PauseTotalNs - m.before.PauseTotalNs,
	}
	if m.prof == nil {
		return res, nil, nil
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(m.prof.Bytes())
	if err != nil {
		return res, nil, err
	}
	return res, attribute(stacks), nil
}

// Set-up is repeated at least setupRepeats times and until setupBudget has
// passed, and reported as the median, so a set-up of a few milliseconds is
// still timed over enough repetitions to give a steady figure.
const (
	setupRepeats = 3
	setupBudget  = time.Second
)

// medianSetup times build repeatedly, closes every result but the last, and
// returns the last with the median build time.
func medianSetup[T any](build func(i int) (T, error), closeFn func(T) error) (T, time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start))
		total += times[i]
		if i+1 >= setupRepeats && total >= setupBudget {
			return v, medianDuration(times), nil
		}
		if err := closeFn(v); err != nil {
			return v, 0, err
		}
	}
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
