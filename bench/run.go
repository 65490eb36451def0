package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"weihl83"
)

// An untraced run sets the whole stack up several times and reports the
// median pass as setup_s: at least minSetupPasses, and more (up to
// maxSetupPasses) while the passes together have taken less than
// setupBudget, so that a set-up of a few milliseconds is timed often enough
// to be steady. The last pass is the one the load runs on.
const (
	minSetupPasses = 3
	maxSetupPasses = 25
)

// setupBudget is 1.5 s of the contract's 10 s run, and scales with shorter
// ones (the tests).
func setupBudget(measure time.Duration) time.Duration { return measure * 15 / 100 }

// measureWindows is how many equal windows the measured time is cut into;
// every end-to-end load value is taken from its per-window values (steady).
const measureWindows = 10

// warmup precedes every measured stretch and is not reported: a tenth of the
// measured time, 1 s of the contract's 10 s run.
func warmup(measure time.Duration) time.Duration { return measure / 10 }

// metricDef names one metric of the ledger.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, with the share of the
// parent's median by which each may worsen before a change is a regression
// (README.md has the calibration evidence: one bound serves every workload,
// and the sandbox's slow phases spread the noisiest one close to the
// contract's maximum). Every workload carries a read-only audit stream, so
// every metric exists on every workload.
//
// The gated tail is the 90th percentile: on this sandbox the 99th is set by
// how the hypervisor schedules fsyncs and virtual CPUs and spreads wider
// than any bound the contract allows. It is still measured and reported,
// ungated (tailMetrics, and untraced.*_p99_ms of the traced run).
var endToEnd = []metricDef{
	{"commit_per_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p90_ms", "ms", "lower", 0.25},
	{"audit_per_s", "1/s", "higher", 0.25},
	{"audit_p50_ms", "ms", "lower", 0.25},
	{"audit_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func metricByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: no metric named " + name) // a typo in this file
}

// tailMetrics are measured on the same untraced run and carried in the
// document beside the end-to-end metrics, with no bound.
var tailMetrics = []metricDef{
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "audit_p99_ms", Unit: "ms", Better: "lower"},
}

// reading is one reported number with what it was obtained from.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Detail is set for values taken from windows or passes.
	Detail *summary `json:"detail,omitempty"`
}

// result is one run of one workload, in the form the builder's contract
// prescribes plus what the full document adds.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	// Tail holds tailMetrics on untraced runs (the document has them, the
	// contract's result line does not).
	Tail map[string]reading `json:"tail,omitempty"`
	// Problems lists failed oracles and the first operation error.
	Problems []string `json:"problems,omitempty"`
}

func newWorkers(seed int64, tr *tracer) ([]*worker, error) {
	ws := make([]*worker, numWorkers)
	for i := range ws {
		ws[i] = &worker{id: i, rng: rand.New(rand.NewSource(workerSeed(seed, i)))}
		var err error
		if ws[i].upd, err = newSampleLog(); err != nil {
			return nil, err
		}
		if ws[i].aud, err = newSampleLog(); err != nil {
			return nil, err
		}
		if tr != nil {
			ws[i].tr = tr.workers[i]
			ws[i].byKind = make(map[opKind][]int64)
		}
	}
	return ws, nil
}

func freeWorkers(ws []*worker) {
	for _, w := range ws {
		w.upd.free()
		w.aud.free()
	}
}

// warmUp puts d of load on st and forgets what it recorded; failures and
// created money are kept, the oracles cover the warm-up too.
func warmUp(ws []*worker, st *stack, gen func(w *worker) op, d time.Duration) {
	closedLoop(ws, st, gen, loadPlan{window: d, windows: 1})
	for _, w := range ws {
		w.upd.reset()
		w.aud.reset()
		w.attempted = 0
		for k := range w.byKind {
			w.byKind[k] = nil
		}
	}
}

// stage readies wl's inputs for the next set-up.
func stage(wl *workload, rc *runCtx) error {
	if wl.stage == nil {
		return nil
	}
	return wl.stage(rc)
}

// oracles runs every correctness check of a finished run.
func oracles(st *stack, ws []*worker, res *result) {
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	var created int64
	for _, w := range ws {
		created += w.deposited
		res.Failed += w.failed
		if w.firstErr != nil {
			problem("worker %d: %v", w.id, w.firstErr)
		}
		if n := w.upd.dropped + w.aud.dropped; n > 0 {
			problem("worker %d: sample log full, %d latencies not recorded", w.id, n)
		}
	}
	if st.quiesce != nil {
		if err := st.quiesce(); err != nil {
			problem("quiesce: %v", err)
		}
	}
	bal, err := st.balances()
	if err != nil {
		problem("reading balances: %v", err)
	} else {
		var total int64
		for _, b := range bal {
			total += b
		}
		if want := int64(len(bal))*seedBalance + created; total != want {
			problem("conservation: accounts hold %d, want %d", total, want)
		}
	}
	if st.check != nil {
		if err := st.check(); err != nil {
			problem("%v", err)
		}
	}
}

// runEndToEnd is the untraced run: set-up through the user's entry points
// (several passes), warm-up, the measured windows, the oracles.
func runEndToEnd(wl *workload, rc *runCtx, measure time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]reading{}, Tail: map[string]reading{}}
	if wl.prepare != nil {
		if err := wl.prepare(rc); err != nil {
			return nil, err
		}
	}
	ws, err := newWorkers(rc.seed, nil)
	if err != nil {
		return nil, err
	}
	defer freeWorkers(ws)
	var st *stack
	var setups []float64
	var spent time.Duration
	for pass := 0; pass < minSetupPasses || (pass < maxSetupPasses && spent < setupBudget(measure)); pass++ {
		if st != nil {
			st.close()
		}
		if err := stage(wl, rc); err != nil {
			return nil, err
		}
		start := time.Now()
		if st, err = wl.build(rc, nil, ws); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		if rc.walBalances != nil {
			if err := verifyRecovered(rc, st); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	defer st.close()

	warmUp(ws, st, wl.gen, warmup(measure))
	plan := loadPlan{window: measure / measureWindows, windows: measureWindows}
	closedLoop(ws, st, wl.gen, plan)
	for _, w := range ws {
		res.Attempted += w.attempted
	}
	oracles(st, ws, res)

	upd, aud := loadStats(ws, plan)
	set := summarize(setups, len(setups))
	for _, m := range []struct {
		name string
		s    summary
	}{
		{"commit_per_s", upd.perSec}, {"commit_p50_ms", upd.p50ms}, {"commit_p90_ms", upd.p90ms},
		{"audit_per_s", aud.perSec}, {"audit_p50_ms", aud.p50ms}, {"audit_p90_ms", aud.p90ms},
	} {
		def := metricByName(endToEnd, m.name)
		res.Metrics[m.name] = reading{Value: steady(m.s.Values, def.Better == "higher"), Unit: def.Unit, Detail: &m.s}
	}
	// Set-up passes are few and the first one is cold: the median pass.
	res.Metrics["setup_s"] = reading{Value: set.Median, Unit: "s", Detail: &set}
	// The ungated tail is there to show stalls, so it is the median window's.
	res.Tail["commit_p99_ms"] = reading{Value: upd.p99ms.Median, Unit: "ms", Detail: &upd.p99ms}
	res.Tail["audit_p99_ms"] = reading{Value: aud.p99ms.Median, Unit: "ms", Detail: &aud.p99ms}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed inside the measured windows")
	}
	return res, nil
}

// perLayer lists the single-layer metrics of the traced run, in report
// order. They have no bound: they explain a movement, they do not gate it.
var perLayer = []metricDef{
	{Name: "tx.self_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "tx.attempts_per_commit", Unit: "count", Better: "lower"},
	{Name: "tx.backoff_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "tx.commit_phase_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "tx.groupcommit_riders_per_batch", Unit: "count", Better: "higher"},
	{Name: "locking.invoke_self_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "locking.invoke_p99_us", Unit: "us", Better: "lower"},
	{Name: "locking.finish_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "locking.wait_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "conflict.allowed_calls_per_commit", Unit: "count", Better: "lower"},
	{Name: "conflict.allowed_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "conflict.allowed_p99_us", Unit: "us", Better: "lower"},
	{Name: "conflict.deny_frac", Unit: "ratio", Better: "lower"},
	{Name: "conflict.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "hybridcc.update_invoke_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "hybridcc.snapshot_invoke_us_per_audit", Unit: "us", Better: "lower"},
	{Name: "hybridcc.finish_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "recovery.append_calls_per_commit", Unit: "count", Better: "lower"},
	{Name: "recovery.append_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "recovery.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "recovery.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "recovery.append_fail_count", Unit: "count", Better: "lower"},
	{Name: "recovery.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "recovery.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.open_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.records_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.populate_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.invoke_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "dist.prepare_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "dist.decide_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "dist.finish_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "dist.site_wal_us_per_commit", Unit: "us", Better: "lower"},
	{Name: "dist.rpc_per_commit", Unit: "count", Better: "lower"},
	{Name: "dist.retransmit_frac", Unit: "ratio", Better: "lower"},
	{Name: "dist.repl_deliveries_per_commit", Unit: "count", Better: "lower"},
	{Name: "dist.repl_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.repl_read_us_per_audit", Unit: "us", Better: "lower"},
	{Name: "dist.commute_p50_us", Unit: "us", Better: "lower"},
	{Name: "dist.noncommute_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_us_per_req", Unit: "us", Better: "lower"},
	{Name: "service.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "client.overhead_us_per_req", Unit: "us", Better: "lower"},
	{Name: "client.retries_per_req", Unit: "count", Better: "lower"},
	{Name: "untraced.commit_per_s", Unit: "1/s", Better: "higher"},
	{Name: "untraced.commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "untraced.audit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.calib_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "harness.alloc_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// absent is reported for a metric derived from a product counter that this
// version of the product does not publish.
const absent = -1

// obsDelta reads the product's own metrics registry (never modified) and
// answers differences against an earlier reading.
type obsDelta struct{ before, after weihl83.MetricsSnapshot }

func (d obsDelta) counter(name string) (float64, bool) {
	a, ok := d.after.Counters[name]
	if !ok {
		return 0, false
	}
	return float64(a - d.before.Counters[name]), true
}

func (d obsDelta) histSum(name string) (float64, bool) {
	a, ok := d.after.Histograms[name]
	if !ok {
		return 0, false
	}
	return float64(a.Sum - d.before.Histograms[name].Sum), true
}

// ratio is num/den from two counters; absent if either is unpublished, 0 if
// the denominator did not move.
func (d obsDelta) ratio(num, den string) float64 {
	n, ok1 := d.counter(num)
	m, ok2 := d.counter(den)
	switch {
	case !ok1 || !ok2:
		return absent
	case m == 0:
		return 0
	}
	return n / m
}

// tracedWindow is everything the traced load window left behind.
type tracedWindow struct {
	tr         *tracer
	ws         []*worker
	upd, aud   windowStats
	obs        obsDelta
	mem0, mem1 runtime.MemStats
	walBytes   int64 // bytes the window added under the live WAL directory
	// drain is how long background work (replication) took to finish after
	// the window.
	drain time.Duration
}

// runTraced is the traced run: the stack rebuilt from the internal
// constructors with a timing decorator at every seam, then a short untraced
// stretch through the user's entry points for reference.
func runTraced(wl *workload, rc *runCtx, measure time.Duration) (*result, []fileSpan, error) {
	res := &result{Correct: true, Metrics: map[string]reading{}}
	calib := calibrate()
	if wl.prepare != nil {
		if err := wl.prepare(rc); err != nil {
			return nil, nil, err
		}
	}

	tr := newTracer(numWorkers, rc.extra)
	ws, err := newWorkers(rc.seed, tr)
	if err != nil {
		return nil, nil, err
	}
	defer freeWorkers(ws)
	if err := stage(wl, rc); err != nil {
		return nil, nil, err
	}
	st, err := wl.build(rc, tr, ws)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	warmUp(ws, st, wl.gen, warmup(measure)/2)
	tr.reset()

	plan := loadPlan{window: measure * 7 / 100, windows: measureWindows}
	win := tracedWindow{tr: tr, ws: ws}
	runtime.ReadMemStats(&win.mem0)
	walBytes0 := dirBytes(rc.liveDir)
	win.obs.before = weihl83.Metrics(false)
	closedLoop(ws, st, wl.gen, plan)
	drainStart := time.Now()
	if st.quiesce != nil {
		if err := st.quiesce(); err != nil {
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("quiesce: %v", err))
		}
	}
	win.drain = time.Since(drainStart)
	win.obs.after = weihl83.Metrics(false)
	runtime.ReadMemStats(&win.mem1)
	win.walBytes = dirBytes(rc.liveDir) - walBytes0
	win.upd, win.aud = loadStats(ws, plan)

	for _, w := range ws {
		res.Attempted += w.attempted
	}
	oracles(st, ws, res)
	st.close()
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation completed inside the traced windows")
	}

	// Untraced reference through the user's entry points, three windows
	// over three tenths of the time: what tracing cost.
	refPlan := loadPlan{window: measure / 10, windows: 3}
	refWs, err := newWorkers(rc.seed, nil)
	if err != nil {
		return nil, nil, err
	}
	defer freeWorkers(refWs)
	if err := stage(wl, rc); err != nil {
		return nil, nil, err
	}
	ref, err := wl.build(rc, nil, refWs)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	warmUp(refWs, ref, wl.gen, warmup(measure)/2)
	closedLoop(refWs, ref, wl.gen, refPlan)
	refUpd, refAud := loadStats(refWs, refPlan)
	oracles(ref, refWs, res)
	ref.close()

	m := layerMetrics(win)
	// One-off timings taken during the set-ups (recovery phases).
	for k, v := range rc.extra {
		m[k] = v
	}
	m["untraced.commit_per_s"] = refUpd.perSec.Median
	m["untraced.commit_p99_ms"] = refUpd.p99ms.Median
	m["untraced.audit_p99_ms"] = refAud.p99ms.Median
	if refUpd.perSec.Median > 0 {
		m["harness.trace_overhead_frac"] = 1 - win.upd.perSec.Median/refUpd.perSec.Median
	}
	m["harness.failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	m["harness.calib_ns_per_op"] = calib
	for _, d := range perLayer {
		res.Metrics[d.Name] = reading{Value: m[d.Name], Unit: d.Unit}
	}
	return res, tr.export(), nil
}

// layerMetrics turns a traced window into the per-layer metrics. A layer
// that did no work on the workload reports 0.
func layerMetrics(win tracedWindow) map[string]float64 {
	tr, obs := win.tr, win.obs
	commits := float64(win.upd.count)
	audits := float64(win.aud.count)
	reqs := commits + audits
	// per is total ns as µs per n transactions.
	per := func(total int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / 1e3 / n
	}
	// perObs is the same for a nanosecond histogram of the product's.
	perObs := func(hist string) float64 {
		v, ok := obs.histSum(hist)
		if !ok {
			return absent
		}
		return v / 1e3 / reqs
	}
	m := map[string]float64{}

	// tx: what is left of a transaction's time once every decorated call
	// below it is taken out (the runtime itself, the harness closure,
	// group-commit queueing and, on retried attempts, the backoff sleep).
	root, attempt := tr.total(spTxn), tr.total(spAttempt)
	phase, tail := tr.total(spCommitPhase), tr.total(spRetryTail)
	if attempt.count > 0 {
		m["tx.self_us_per_commit"] = per(root.self+attempt.self+phase.self+tail.self, reqs)
		m["tx.attempts_per_commit"] = float64(attempt.count) / reqs
		m["tx.commit_phase_us_per_commit"] = per(phase.total, reqs)
	}
	m["tx.backoff_us_per_commit"] = perObs("tx.backoff.sleep_ns")
	m["tx.groupcommit_riders_per_batch"] = obs.ratio("tx.groupcommit.riders", "tx.groupcommit.batches")

	calls, denied, allowedNS, allowedLat := tr.guardTotals()
	if lock := tr.total(spLockInvoke); lock.count > 0 {
		m["locking.invoke_self_us_per_commit"] = per(lock.total-allowedNS, reqs)
		m["locking.invoke_p99_us"] = float64(percentile(tr.latencies(spLockInvoke), 0.99)) / 1e3
	}
	m["locking.finish_us_per_commit"] = per(tr.total(spLockFinish).total, reqs)
	m["locking.wait_us_per_commit"] = perObs("locking.wait_ns")

	m["conflict.allowed_calls_per_commit"] = float64(calls) / reqs
	m["conflict.allowed_us_per_commit"] = per(allowedNS, reqs)
	m["conflict.allowed_p99_us"] = float64(percentile(allowedLat, 0.99)) / 1e3
	if calls > 0 {
		m["conflict.deny_frac"] = float64(denied) / float64(calls)
	}
	hits, ok1 := obs.counter("cc.conflict.cache.hits")
	misses, ok2 := obs.counter("cc.conflict.cache.misses")
	switch {
	case !ok1 || !ok2:
		m["conflict.cache_hit_frac"] = absent
	case hits+misses > 0:
		m["conflict.cache_hit_frac"] = hits / (hits + misses)
	}

	m["hybridcc.update_invoke_us_per_commit"] = per(tr.total(spHybUpdate).total, commits)
	m["hybridcc.snapshot_invoke_us_per_audit"] = per(tr.total(spHybSnapshot).total, audits)
	m["hybridcc.finish_us_per_commit"] = per(tr.total(spHybFinish).total, commits)

	if appendCalls, appendFails, _ := tr.backendTotals(spAppend); appendCalls > 0 {
		m["recovery.append_calls_per_commit"] = float64(appendCalls) / reqs
		m["recovery.append_us_per_commit"] = per(tr.total(spAppend).total, reqs)
		m["recovery.append_p99_us"] = float64(percentile(tr.latencies(spAppend), 0.99)) / 1e3
		m["recovery.append_fail_count"] = float64(appendFails)
		m["recovery.fsyncs_per_commit"] = obs.ratio("wal.fsync.count", "tx.commit")
		m["recovery.wal_bytes_per_commit"] = float64(win.walBytes) / reqs
	}

	if invoke := tr.total(spDistInvoke); invoke.count > 0 {
		m["dist.invoke_us_per_commit"] = per(invoke.total, reqs)
		m["dist.prepare_us_per_commit"] = per(tr.total(spDistPrepare).total, reqs)
		m["dist.decide_us_per_commit"] = per(tr.total(spDistDecide).total, reqs)
		m["dist.finish_us_per_commit"] = per(tr.total(spDistFinish).total, reqs)
		m["dist.site_wal_us_per_commit"] = per(tr.total(spSiteWAL).total, reqs)
		m["dist.rpc_per_commit"] = obs.ratio("dist.rpc.calls", "tx.commit")
		m["dist.retransmit_frac"] = obs.ratio("dist.rpc.retransmits", "dist.rpc.attempts")
		m["dist.repl_deliveries_per_commit"] = obs.ratio("dist.repl.deliveries", "tx.commit")
	}
	if reads := tr.total(spReplRead); reads.count > 0 {
		m["dist.repl_drain_ms"] = ms(win.drain)
		m["dist.repl_read_us_per_audit"] = per(reads.total, audits)
		kindP50 := func(k opKind) float64 {
			var all []int64
			for _, w := range win.ws {
				all = append(all, w.byKind[k]...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			return float64(percentile(all, 0.50)) / 1e3
		}
		m["dist.commute_p50_us"] = kindP50(opDeposit)
		m["dist.noncommute_p50_us"] = kindP50(opTransfer)
	}

	if call := tr.total(spClientCall); call.count > 0 {
		m["service.handler_us_per_req"] = per(tr.total(spHandler).total, float64(call.count))
		m["client.overhead_us_per_req"] = per(call.self, float64(call.count))
		shedQ, okQ := obs.counter("svc.shed.queue")
		shedD, okD := obs.counter("svc.shed.draining")
		httpReqs, okR := obs.counter("svc.http.requests")
		switch {
		case !okQ || !okD || !okR:
			m["service.shed_frac"] = absent
		case httpReqs > 0:
			m["service.shed_frac"] = (shedQ + shedD) / httpReqs
		}
		m["client.retries_per_req"] = obs.ratio("svc.client.retries", "svc.client.requests")
	}

	m["harness.alloc_bytes_per_commit"] = float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / reqs
	m["harness.gc_pause_ms"] = float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs) / 1e6
	m["harness.heap_live_mb"] = float64(win.mem1.HeapAlloc) / (1 << 20)
	m["harness.peak_rss_mb"] = peakRSSMB()
	return m
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-Go loop (integer mixing over a 32 KiB table,
// no allocation, no system call) and returns the best of five passes in ns
// per iteration. Two runs whose program numbers differ but whose calibration
// differs the same way ran on a different machine, not a different program.
func calibrate() float64 {
	var table [4096]uint64
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	const iters = 4_000_000
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		x := uint64(pass) + 1
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += table[x&4095]
			table[(x>>12)&4095] = x
		}
		el := float64(time.Since(start)) / iters
		calibSink += x
		if pass == 0 || el < best {
			best = el
		}
	}
	return best
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return absent
	}
	return float64(ru.Maxrss) / 1024
}

// cleanup removes what a run left under the scratch directory.
func (rc *runCtx) cleanup() {
	for _, dir := range rc.tmpDirs {
		_ = os.RemoveAll(dir) // scratch data; a leftover is only clutter
	}
}
