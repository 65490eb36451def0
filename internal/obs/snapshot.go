package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// HistogramSnapshot is a histogram's state at one instant. Latency
// histograms observe nanoseconds, so the quantile fields read as ns; other
// histograms (version-chain lengths) read in their own units. Buckets
// carries the raw power-of-two bucket counts (trailing zero buckets
// trimmed), so any quantile can be re-derived from a snapshot — see
// Quantile — without holding the live histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	Max     int64   `json:"max"`
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	P95     int64   `json:"p95"`
	P99     int64   `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// SnapshotOf captures a histogram, merging its shards once: the quantiles
// are derived from the captured buckets.
func SnapshotOf(h *Histogram) HistogramSnapshot {
	buckets := h.buckets()
	last := -1
	for i, n := range buckets {
		if n != 0 {
			last = i
		}
	}
	s := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Max:     h.Max(),
		Buckets: append([]int64{}, buckets[:last+1]...),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.P50, s.P90, s.P95, s.P99 = s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.95), s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot's raw
// buckets, the same conservative upper-bound estimate the live histogram
// gives: consumers (benchmark emitters, dashboards) ask a snapshot for any
// percentile instead of re-deriving it from the bucket layout themselves.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	return quantileOf(q, s.Count, s.Max, s.Buckets)
}

// Snapshot is one consistent-enough sample of a whole registry: every
// counter total, every histogram summary, and (optionally) the tracer's
// ring. Counters and histograms are read atomically per metric; the
// snapshot as a whole is a sample, not a global fence — good for
// diagnostics, meaningless to diff at nanosecond granularity.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	TraceRecorded uint64                       `json:"trace_recorded,omitempty"`
	TraceDropped  uint64                       `json:"trace_dropped,omitempty"`
	Trace         []TraceEvent                 `json:"trace,omitempty"`
}

// Snapshot captures the registry. withTrace additionally drains the
// tracer's ring into the snapshot.
func (r *Registry) Snapshot(withTrace bool) Snapshot {
	r.mu.RLock()
	counterNames := sortedKeys(r.counters)
	histNames := sortedKeys(r.hists)
	counters := make(map[string]int64, len(counterNames))
	hists := make(map[string]HistogramSnapshot, len(histNames))
	for _, name := range counterNames {
		counters[name] = r.counters[name].Load()
	}
	for _, name := range histNames {
		hists[name] = SnapshotOf(r.hists[name])
	}
	tr := r.tracer
	r.mu.RUnlock()
	s := Snapshot{Counters: counters, Histograms: hists}
	s.TraceRecorded = tr.Recorded()
	s.TraceDropped = tr.Dropped()
	if withTrace {
		s.Trace = tr.Events()
	}
	return s
}

// Counter returns a counter total from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// String renders a sorted, human-readable metric listing (no trace), for
// diagnostic dumps.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		if s.Counters[n] != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %d\n", n, s.Counters[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		if s.Histograms[n].Count != 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if strings.HasSuffix(n, "_ns") {
			fmt.Fprintf(&b, "  %-32s n=%d mean=%v p50=%v p99=%v max=%v\n",
				n, h.Count, time.Duration(h.Mean).Round(time.Microsecond),
				time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
		} else {
			fmt.Fprintf(&b, "  %-32s n=%d mean=%.1f p50=%d p99=%d max=%d\n",
				n, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}
	if s.TraceRecorded > 0 {
		fmt.Fprintf(&b, "  trace: %d events recorded, %d dropped\n", s.TraceRecorded, s.TraceDropped)
	}
	return b.String()
}

// Summary renders only the deterministic portion of the snapshot: counter
// totals and histogram observation counts, no wall-clock latency values.
// A sequential seeded run produces byte-identical Summary output, so it is
// safe to diff across replays (the chaos harness relies on this).
func (s Snapshot) Summary() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		if s.Counters[n] != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %d\n", n, s.Counters[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		if s.Histograms[n].Count != 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		fmt.Fprintf(&b, "  %-32s n=%d\n", n, s.Histograms[n].Count)
	}
	if s.TraceRecorded > 0 {
		fmt.Fprintf(&b, "  trace: %d events recorded, %d dropped\n", s.TraceRecorded, s.TraceDropped)
	}
	return b.String()
}
