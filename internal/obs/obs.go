// Package obs is the observability substrate: lock-cheap metrics and a
// bounded transaction event tracer, dependency-free so every layer of the
// stack (tx, locking, mvcc, hybridcc, dist, recovery, fault, sim) can
// publish into it without import cycles.
//
// The paper's whole argument rests on histories — sequences of
// invoke/return/commit/abort events — and the checkers consume them
// offline. This package makes the same vocabulary observable online: how
// often transactions retried and why, how long conflict waits lasted, how
// version chains grew, what the message layer retransmitted, what the
// write-ahead log absorbed, and which fault points fired. One Snapshot
// explains a whole bench or chaos run.
//
// Hot-path design:
//
//   - Counter is a set of cache-line-padded atomic cells, one per
//     processor (the runtime's P), so concurrent increments do not fight
//     over one cache line. No mutex, no allocation.
//   - Histogram is sharded the same way: each padded shard holds a fixed
//     array of power-of-two buckets plus count/sum/max, and Observe is a
//     handful of atomic operations on one shard. Readers merge the shards.
//   - The Tracer (see trace.go) costs a single atomic load when disabled.
//
// Instrumented packages resolve their *Counter/*Histogram pointers once
// (package init or construction) from a Registry — usually Default — and
// the hot path never touches a map.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	_ "unsafe" // go:linkname
)

// counterShards is the number of independent cells per counter. Power of
// two; 8 cells × 64 bytes keeps a counter within a few cache lines while
// spreading writers enough for this repo's worker counts.
const counterShards = 8

// cell is one padded counter shard. The padding keeps neighbouring cells
// on distinct cache lines so concurrent Adds do not false-share.
type cell struct {
	n int64
	_ [56]byte
}

// Counter is a monotonic (or signed, if you Add negatives) event counter.
// The zero value is ready to use. Safe for concurrent use; Add never
// blocks and never allocates.
type Counter struct {
	cells [counterShards]cell
}

// shardIndex picks the cell of the processor (the runtime's P) the caller
// runs on, as sync.Pool does: goroutines running at the same time run on
// distinct Ps, so with up to counterShards Ps concurrent writers never
// share a cell, in every run. A pick hashed from the goroutine's stack
// address depends on where the allocator put each stack, so which writers
// shared a cell changed from one process to the next.
func shardIndex() int {
	p := procPin()
	procUnpin()
	return p & (counterShards - 1)
}

// procPin and procUnpin are the runtime's own P pinning, the pair sync.Pool
// uses; the runtime keeps them linkable (go.dev/issue/67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	atomicAdd(&c.cells[shardIndex()].n, d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total: the sum of all cells. Concurrent with
// writers the total is a valid linearization point per cell, never torn.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.cells {
		sum += atomicLoad(&c.cells[i].n)
	}
	return sum
}

// reset zeroes the counter in place, preserving identity so cached
// pointers keep working.
func (c *Counter) reset() {
	for i := range c.cells {
		atomicStore(&c.cells[i].n, 0)
	}
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the whole non-negative int64 range, so one shape works
// for nanosecond latencies and version-chain lengths alike.
const histBuckets = 64

// Histogram is a fixed-bucket histogram over non-negative int64
// observations (nanoseconds for latencies, plain counts for lengths).
// The zero value is ready to use. Safe for concurrent use; Observe is a
// few atomic operations on one shard, no mutex, no allocation.
//
// Like Counter it is sharded: each of counterShards padded cells holds its
// own count, sum, max and buckets, and Observe picks one by shardIndex, so
// concurrent observers do not fight over one cache line. Readers sum (or,
// for the maximum, max) over the shards.
type Histogram struct {
	shards [counterShards]histShard
}

// histShard is one histogram cell: 67 int64s (536 bytes) padded to ten
// cache lines, so neighbouring shards' hot words never share a line.
type histShard struct {
	count   int64
	sum     int64
	max     int64
	buckets [histBuckets]int64
	_       [104]byte
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for positive v
}

// Observe records one observation. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.shards[shardIndex()]
	atomicAdd(&s.count, 1)
	atomicAdd(&s.sum, v)
	atomicAdd(&s.buckets[bucketOf(v)], 1)
	for {
		cur := atomicLoad(&s.max)
		if v <= cur || atomicCAS(&s.max, cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.shards {
		n += atomicLoad(&h.shards[i].count)
	}
	return n
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() int64 {
	var n int64
	for i := range h.shards {
		n += atomicLoad(&h.shards[i].sum)
	}
	return n
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	var m int64
	for i := range h.shards {
		if v := atomicLoad(&h.shards[i].max); v > m {
			m = v
		}
	}
	return m
}

// Mean returns the exact mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// buckets returns the per-bucket totals over every shard.
func (h *Histogram) buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.shards {
		s := &h.shards[i]
		for b := range out {
			out[b] += atomicLoad(&s.buckets[b])
		}
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets,
// returning the upper bound of the bucket containing the target rank —
// a conservative (over-)estimate, capped by the recorded maximum.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	b := h.buckets()
	return quantileOf(q, n, h.Max(), b[:])
}

// quantileOf is the bucket quantile estimate shared by the live histogram
// and its snapshots: the upper bound of the bucket holding rank q·n, capped
// by max.
func quantileOf(q float64, n, max int64, buckets []int64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum > rank {
			upper := int64(1)<<uint(i) - 1
			if i == 0 {
				upper = 0
			}
			if max < upper {
				upper = max
			}
			return upper
		}
	}
	return max
}

// reset zeroes the histogram in place.
func (h *Histogram) reset() {
	for i := range h.shards {
		s := &h.shards[i]
		atomicStore(&s.count, 0)
		atomicStore(&s.sum, 0)
		atomicStore(&s.max, 0)
		for b := range s.buckets {
			atomicStore(&s.buckets[b], 0)
		}
	}
}

// Registry is a namespace of counters, histograms and one tracer.
// Counter/Histogram get-or-create is mutex-guarded, but instrumented code
// resolves its pointers once and the increments themselves never lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	tracer   *Tracer
}

// DefaultTraceCapacity is the Default registry's ring-buffer size.
const DefaultTraceCapacity = 4096

// NewRegistry returns an empty registry with a disabled tracer of
// DefaultTraceCapacity events.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		tracer:   NewTracer(DefaultTraceCapacity),
	}
}

// Default is the process-wide registry every instrumented package
// publishes into. Reset it between experiments to scope a snapshot to one
// run.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's event tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Reset zeroes every counter and histogram in place (cached pointers stay
// valid) and clears the tracer's ring without changing whether it is
// enabled.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.tracer.reset()
}

// names returns the sorted names of one metric kind under the read lock.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
