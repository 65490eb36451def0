package obs

import (
	"encoding/json"
	"testing"
)

// TestHistogramSnapshotQuantile checks that a snapshot answers the same
// conservative upper-bound quantiles as the live histogram it was taken
// from, and keeps doing so after a JSON round trip (a client of the
// service's /v1/metrics: decode a snapshot off the wire, ask it for
// percentiles).
func TestHistogramSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := SnapshotOf(&h)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := s.Quantile(q), h.Quantile(q); got != want {
			t.Errorf("snapshot Quantile(%v) = %d, live histogram says %d", q, got, want)
		}
	}
	if s.P95 != h.Quantile(0.95) {
		t.Errorf("P95 field = %d, want %d", s.P95, h.Quantile(0.95))
	}
	if s.Quantile(0.5) > s.Quantile(0.99) {
		t.Errorf("p50 %d > p99 %d", s.Quantile(0.5), s.Quantile(0.99))
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var rt HistogramSnapshot
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.95, 0.999} {
		if rt.Quantile(q) != s.Quantile(q) {
			t.Errorf("after JSON round trip Quantile(%v) = %d, want %d", q, rt.Quantile(q), s.Quantile(q))
		}
	}
}

func TestHistogramSnapshotQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot Quantile = %d, want 0", got)
	}
	var h Histogram
	h.Observe(7)
	s := SnapshotOf(&h)
	// Single observation: every quantile is its (bucket-capped) upper bound,
	// which Max clamps to the exact value.
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", q, got)
		}
	}
}
