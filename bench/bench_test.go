package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.91, 100}, {0.1, 10}, {0.01, 10}, {1, 100}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// 1000 samples: p99 leaves exactly ten above it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vals := []float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSteadyKeepsTheBestThreeTenths(t *testing.T) {
	vals := []float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6}
	if got := steady(vals, true); got != 9 {
		t.Errorf("steady(higher is better) = %v, want the mean of 8, 9, 10", got)
	}
	if got := steady(vals, false); got != 2 {
		t.Errorf("steady(lower is better) = %v, want the mean of 1, 2, 3", got)
	}
	if got := steady([]float64{5, 3}, false); got != 3 {
		t.Errorf("steady of two = %v, want the better one", got)
	}
	if got := steady(nil, true); got != 0 {
		t.Errorf("steady of nothing = %v, want 0", got)
	}
}

// TestSelfTime drives a worker trace by hand: a root with one attempt, the
// attempt with an invoke and a span injected from another goroutine.
func TestSelfTime(t *testing.T) {
	w := newWtrace(time.Now(), 0)
	w.openAt(spTxn, -1, 0)
	w.openAt(spAttempt, -1, 10)
	w.openAt(spLockInvoke, 3, 20)
	w.mu.Lock()
	w.closeLocked(50) // invoke: 30
	w.mu.Unlock()
	w.addChild(spAppend, 60, 100) // append: 40, finished elsewhere
	w.mu.Lock()
	w.closeLocked(120) // attempt: 110, self 110-30-40
	w.closeLocked(130) // root: 130, self 20
	w.mu.Unlock()

	for _, c := range []struct {
		name        spanName
		total, self int64
	}{{spTxn, 130, 20}, {spAttempt, 110, 40}, {spLockInvoke, 30, 30}, {spAppend, 40, 40}} {
		got := w.totals[c.name]
		if got.count != 1 || got.total != c.total || got.self != c.self {
			t.Errorf("%s: %+v, want total %d self %d", spanNames[c.name], got, c.total, c.self)
		}
	}
	var selfSum int64
	for _, tot := range w.totals {
		selfSum += tot.self
	}
	if selfSum != 130 {
		t.Errorf("self times sum to %d, want the root's 130", selfSum)
	}
	if len(w.spans) != 4 || w.spans[3].parent != 1 || w.spans[2].parent != 1 || w.spans[1].parent != 0 {
		t.Errorf("span tree: %+v", w.spans)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name || bf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters", wl.name, len(wl.why))
		}
		unique(wl.name)
	}
	same := func(kind string, file, code []metricDef) {
		t.Helper()
		if len(file) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(file), kind, len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, file[i], code[i])
			}
			if !unitRE.MatchString(code[i].Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", code[i].Name, code[i].Unit)
			}
			if code[i].Better != "lower" && code[i].Better != "higher" {
				t.Errorf("%s: better is %q", code[i].Name, code[i].Better)
			}
			unique(code[i].Name)
		}
	}
	same("end-to-end", bf.EndToEnd, endToEnd)
	same("per-layer", bf.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestEveryWorkload runs each workload both ways with 30 ms windows: every
// named metric is present and finite, the oracles pass, and the sampled
// spans form whole, well-nested trees whose self times add up to their root.
func TestEveryWorkload(t *testing.T) {
	walPopulate = 2000
	out := t.TempDir()
	const measure = 300 * time.Millisecond
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			e2e, err := runOne(wl, 7, measure, false, out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, e2e, endToEnd)
			for _, m := range endToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, must be positive on every workload", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			for _, m := range tailMetrics {
				if e2e.Tail[m.Name].Value <= 0 {
					t.Errorf("ungated %s = %v, must be positive on every workload", m.Name, e2e.Tail[m.Name].Value)
				}
			}
			layers, err := runOne(wl, 7, measure, true, out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, layers, perLayer)
			if v := layers.Metrics["harness.calib_ns_per_op"].Value; v <= 0 {
				t.Errorf("harness.calib_ns_per_op = %v", v)
			}
			raw, err := os.ReadFile(out + "/trace-" + wl.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var spans []fileSpan
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			checkSpans(t, spans)
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s is missing", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v", m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		}
	}
}

// checkSpans verifies the trace file's invariants: parents precede and
// contain their children, every transaction has exactly one root, and the
// self times of a transaction's spans add up to its root within 5%.
func checkSpans(t *testing.T, spans []fileSpan) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans sampled")
	}
	roots := map[int64]int{}
	covered := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Txn]++
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i && s.Name != spanNames[spAllowed] {
			t.Fatalf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		if s.Txn != p.Txn {
			t.Fatalf("span %d (%s) is in transaction %d, its parent in %d", i, s.Name, s.Txn, p.Txn)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s, %d..%d) leaves its parent %s (%d..%d)", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		covered[s.Parent] += s.End - s.Start
	}
	selfSum := map[int64]int64{}
	rootDur := map[int64]int64{}
	for i, s := range spans {
		dur := s.End - s.Start
		if covered[i] > dur {
			t.Fatalf("children of span %d (%s) cover %d of its %d ns", i, s.Name, covered[i], dur)
		}
		selfSum[s.Txn] += dur - covered[i]
		if s.Parent < 0 {
			rootDur[s.Txn] = dur
		}
	}
	for txn, n := range roots {
		if n != 1 {
			t.Fatalf("transaction %d has %d roots", txn, n)
		}
		if d := rootDur[txn]; math.Abs(float64(selfSum[txn]-d)) > 0.05*float64(d) {
			t.Fatalf("transaction %d: self times sum to %d, root lasts %d", txn, selfSum[txn], d)
		}
	}
	for txn := range selfSum {
		if roots[txn] != 1 {
			t.Fatalf("transaction %d has spans but %d roots", txn, roots[txn])
		}
	}
}
