package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; the total
// must be exact (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 16, 10_000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	c.reset()
	if got := c.Load(); got != 0 {
		t.Errorf("after reset = %d", got)
	}
}

func TestCounterAddNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	if got := c.Load(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 1006 { // -5 clamps to 0
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("max = %d", h.Max())
	}
	if m := h.Mean(); m != 1006.0/5 {
		t.Errorf("mean = %f", m)
	}
	// Quantiles are conservative upper bounds, never above the max.
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got < 0 || got > h.Max() {
			t.Errorf("quantile(%v) = %d out of [0, max]", q, got)
		}
	}
	if h.Quantile(0.5) < 2 {
		t.Errorf("p50 = %d, want >= 2", h.Quantile(0.5))
	}
	var empty Histogram
	if empty.Count() != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram not zero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5_000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	const n = workers * perWorker
	if got := h.Sum(); got != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", got, n*(n-1)/2)
	}
	if got := h.Max(); got != n-1 {
		t.Errorf("max = %d, want %d", got, n-1)
	}
}

// TestHistogramShardedMatchesSerial: observations spread over the shards
// by eight concurrent goroutines read back exactly like the same values
// observed serially — count, sum, max, every quantile and the raw buckets.
func TestHistogramShardedMatchesSerial(t *testing.T) {
	const workers, perWorker = 8, 4_000
	value := func(w, i int) int64 { return int64((w*7919 + i*104729) % 5_000_000) }
	var serial, sharded Histogram
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			serial.Observe(value(w, i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sharded.Observe(value(w, i))
			}
		}(w)
	}
	wg.Wait()
	if sharded.Count() != serial.Count() || sharded.Sum() != serial.Sum() || sharded.Max() != serial.Max() {
		t.Fatalf("count/sum/max = %d/%d/%d, serial %d/%d/%d",
			sharded.Count(), sharded.Sum(), sharded.Max(), serial.Count(), serial.Sum(), serial.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if got, want := sharded.Quantile(q), serial.Quantile(q); got != want {
			t.Errorf("quantile(%v) = %d, serial %d", q, got, want)
		}
	}
	got, want := SnapshotOf(&sharded), SnapshotOf(&serial)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %+v\nserial   = %+v", got, want)
	}
}

// TestHistogramResetZeroesEveryShard: reset clears every shard, not just
// the one the resetting goroutine would observe into.
func TestHistogramResetZeroesEveryShard(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := range h.shards {
		s := &h.shards[i]
		s.count, s.sum, s.max = 1, int64(i+1), int64(i+1)
		s.buckets[bucketOf(int64(i+1))] = 1
	}
	if h.Count() != counterShards || h.Max() != counterShards {
		t.Fatalf("seeded count/max = %d/%d, want %d/%d", h.Count(), h.Max(), counterShards, counterShards)
	}
	r.Reset()
	for i := range h.shards {
		if s := h.shards[i]; s.count != 0 || s.sum != 0 || s.max != 0 || s.buckets != [histBuckets]int64{} {
			t.Fatalf("shard %d not zeroed by Reset: %+v", i, s)
		}
	}
	if snap := SnapshotOf(h); snap.Count != 0 || len(snap.Buckets) != 0 || snap.P99 != 0 {
		t.Fatalf("snapshot after Reset = %+v", snap)
	}
}

// TestTracerRingOverflow fills a small ring past capacity: the oldest
// events are dropped, the survivors have strictly increasing sequence
// numbers, and the drop count is exact.
func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable()
	const total = 40
	for i := 0; i < total; i++ {
		tr.Record(TraceEvent{Kind: KindCommit, Txn: "t"})
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(evs))
	}
	if tr.Recorded() != total {
		t.Errorf("recorded = %d, want %d", tr.Recorded(), total)
	}
	if tr.Dropped() != total-16 {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), total-16)
	}
	// Oldest survivor is the first event not overwritten.
	if evs[0].Seq != total-16 {
		t.Errorf("oldest surviving seq = %d, want %d", evs[0].Seq, total-16)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].At < evs[i-1].At {
			t.Fatalf("timestamps not monotonic at %d", i)
		}
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(TraceEvent{Kind: KindAbort})
	if tr.Recorded() != 0 || len(tr.Events()) != 0 {
		t.Error("disabled tracer recorded an event")
	}
	tr.Enable()
	if !tr.Enabled() {
		t.Error("tracer not enabled")
	}
	tr.Record(TraceEvent{Kind: KindAbort})
	tr.Disable()
	tr.Record(TraceEvent{Kind: KindAbort})
	if tr.Recorded() != 1 {
		t.Errorf("recorded = %d, want 1", tr.Recorded())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Enable()
	tr.Disable()
	tr.Record(TraceEvent{})
	tr.reset()
	if tr.Enabled() || tr.Recorded() != 0 || tr.Dropped() != 0 || tr.Capacity() != 0 || tr.Events() != nil {
		t.Error("nil tracer not inert")
	}
}

func TestTracerCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}} {
		if got := NewTracer(tc.ask).Capacity(); got != tc.want {
			t.Errorf("NewTracer(%d).Capacity() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestSnapshotWithActiveWriters takes snapshots while writers are mutating
// everything: every observed value must be internally sane (no torn reads,
// sorted trace) and counter totals must be monotone across snapshots.
func TestSnapshotWithActiveWriters(t *testing.T) {
	r := NewRegistry()
	r.Tracer().Enable()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("writer.ticks")
			h := r.Histogram("writer.lat_ns")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i % 1000))
				r.Tracer().Record(TraceEvent{Kind: KindInvoke, Txn: "w"})
			}
		}()
	}
	var prev int64 = -1
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := r.Snapshot(true)
		ticks := s.Counter("writer.ticks")
		if ticks < prev {
			t.Fatalf("counter went backwards: %d then %d", prev, ticks)
		}
		prev = ticks
		if h, ok := s.Histograms["writer.lat_ns"]; ok && h.Count > 0 {
			if h.Max > 999 || h.Mean < 0 {
				t.Fatalf("implausible histogram %+v", h)
			}
		}
		for i := 1; i < len(s.Trace); i++ {
			if s.Trace[i].Seq <= s.Trace[i-1].Seq {
				t.Fatalf("trace not sorted at %d", i)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryResetPreservesIdentity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("y")
	c.Inc()
	h.Observe(5)
	r.Tracer().Enable()
	r.Tracer().Record(TraceEvent{Kind: KindCommit})
	r.Reset()
	if c.Load() != 0 || h.Count() != 0 || r.Tracer().Recorded() != 0 {
		t.Error("reset did not zero")
	}
	if r.Counter("x") != c || r.Histogram("y") != h {
		t.Error("reset changed metric identity")
	}
	if !r.Tracer().Enabled() {
		t.Error("reset changed tracer enablement")
	}
	c.Inc()
	if c.Load() != 1 {
		t.Error("counter unusable after reset")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Histogram("c.lat_ns").Observe(1500)
	r.Tracer().Enable()
	r.Tracer().Record(TraceEvent{Kind: KindCommit, Txn: "t1", Dur: time.Millisecond})
	s := r.Snapshot(true)
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a.b") != 7 {
		t.Errorf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Histograms["c.lat_ns"].Count != 1 {
		t.Errorf("histogram lost in round trip")
	}
	if len(back.Trace) != 1 || back.Trace[0].Kind != KindCommit || back.Trace[0].Txn != "t1" {
		t.Errorf("trace lost in round trip: %+v", back.Trace)
	}
	if s.String() == "" {
		t.Error("empty string rendering")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

func BenchmarkTracerDisabled(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(TraceEvent{Kind: KindInvoke})
		}
	})
}

func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity)
	tr.Enable()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(TraceEvent{Kind: KindInvoke, Txn: "t", Obj: "o"})
		}
	})
}
