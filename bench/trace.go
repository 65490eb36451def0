package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// Tracing is done from outside the program: timing decorators sit at the
// interface seams the product already has (locking.Guard, cc.Resource,
// recovery.Backend, tx.Coordinator, tx.ReadRouter, http.Handler) and record
// a span per call plus running totals per span name. Spans of one logical
// transaction form a tree: root (all attempts) -> attempt -> commit phase
// -> decorator calls. Only a prefix of each worker's spans is kept (the
// sample written to the trace file); the totals cover the whole window.

// spanName enumerates the span kinds; the string form is what the trace
// file carries.
type spanName uint8

const (
	spTxn spanName = iota
	spAttempt
	spCommitPhase
	spRetryTail
	spLockInvoke
	spLockFinish
	spHybUpdate
	spHybSnapshot
	spHybFinish
	spAllowed
	spAppend
	spDistInvoke
	spDistPrepare
	spDistDecide
	spDistFinish
	spSiteWAL
	spReplRead
	spClientCall
	spHandler
	nSpanNames
)

var spanNames = [nSpanNames]string{
	spTxn:         "txn",
	spAttempt:     "tx.attempt",
	spCommitPhase: "tx.commit_phase",
	spRetryTail:   "tx.retry_tail",
	spLockInvoke:  "locking.invoke",
	spLockFinish:  "locking.finish",
	spHybUpdate:   "hybridcc.update_invoke",
	spHybSnapshot: "hybridcc.snapshot_invoke",
	spHybFinish:   "hybridcc.finish",
	spAllowed:     "conflict.allowed",
	spAppend:      "recovery.append",
	spDistInvoke:  "dist.invoke",
	spDistPrepare: "dist.prepare",
	spDistDecide:  "dist.decide",
	spDistFinish:  "dist.finish",
	spSiteWAL:     "dist.site_wal",
	spReplRead:    "dist.repl_read",
	spClientCall:  "client.call",
	spHandler:     "service.handler",
}

// span is one timed interval. Parent indexes the same worker's span list
// while recording and the merged list in the trace file; -1 marks a root.
type span struct {
	name   spanName
	obj    int32 // object index for *.invoke and conflict.allowed spans, else -1
	parent int32
	txn    int64
	start  int64
	end    int64
}

// nameTotal is the running total of one span name over the traced window.
type nameTotal struct {
	count int64
	total int64 // ns inside spans of this name
	self  int64 // ns not covered by child spans
}

// frame is one open span on a worker's stack.
type frame struct {
	name  spanName
	idx   int32 // index in spans, -1 once the sample is full
	start int64
	child int64 // ns covered by closed children
}

// maxSampleSpans bounds the spans each worker keeps for the trace file;
// treeRoom is the room a new tree must find (a transaction retried often
// enough to outgrow it is cut short in the file, never in the totals).
const (
	maxSampleSpans = 20_000
	treeRoom       = 1_024
)

// wtrace is one worker's trace context. The worker's own goroutine opens and
// closes spans in stack order; the group-commit leader and the HTTP server
// add finished child spans from other goroutines while the worker is blocked
// in the call they belong to, hence the mutex.
type wtrace struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stack  []frame
	totals [nSpanNames]nameTotal
	txn    int64
	// lat keeps per-call durations of the names whose p99 is reported.
	lat [nSpanNames][]int64
}

func newWtrace(epoch time.Time, worker int) *wtrace {
	return &wtrace{
		epoch: epoch,
		spans: make([]span, 0, maxSampleSpans),
		stack: make([]frame, 0, 8),
		// Transaction numbers are unique across workers: worker in the
		// top bits.
		txn: int64(worker) << 40,
	}
}

func (w *wtrace) now() int64 { return int64(time.Since(w.epoch)) }

// open pushes a span starting now.
func (w *wtrace) open(name spanName, obj int32) {
	w.openAt(name, obj, w.now())
}

func (w *wtrace) openAt(name spanName, obj int32, start int64) {
	w.mu.Lock()
	if name == spTxn {
		w.txn++
	}
	idx := int32(-1)
	room := cap(w.spans) - len(w.spans)
	if (len(w.stack) == 0 && room >= treeRoom) || (len(w.stack) > 0 && w.stack[len(w.stack)-1].idx >= 0 && room > 0) {
		// A root is sampled only while a whole tree still fits, a child
		// only if its parent was, so the sample is a set of whole trees.
		parent := int32(-1)
		if n := len(w.stack); n > 0 {
			parent = w.stack[n-1].idx
		}
		idx = int32(len(w.spans))
		w.spans = append(w.spans, span{name: name, obj: obj, parent: parent, txn: w.txn, start: start})
	}
	w.stack = append(w.stack, frame{name: name, idx: idx, start: start})
	w.mu.Unlock()
}

// close pops the innermost open span, ending now.
func (w *wtrace) close() {
	end := w.now()
	w.mu.Lock()
	w.closeLocked(end)
	w.mu.Unlock()
}

func (w *wtrace) closeLocked(end int64) {
	n := len(w.stack) - 1
	f := w.stack[n]
	w.stack = w.stack[:n]
	dur := end - f.start
	t := &w.totals[f.name]
	t.count++
	t.total += dur
	t.self += dur - f.child
	if wantsLatency(f.name) {
		w.lat[f.name] = append(w.lat[f.name], dur)
	}
	if f.idx >= 0 {
		w.spans[f.idx].end = end
	}
	if n > 0 {
		w.stack[n-1].child += dur
	}
}

// closeTo pops open spans until depth remain (a failed attempt leaves its
// commit phase open; the next attempt or the end of the transaction closes
// both).
func (w *wtrace) closeTo(depth int) {
	end := w.now()
	w.mu.Lock()
	for len(w.stack) > depth {
		w.closeLocked(end)
	}
	w.mu.Unlock()
}

// inTransaction reports whether a root span is open.
func (w *wtrace) inTransaction() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.stack) > 0
}

// retryTail renames an open commit phase: the attempt it ended failed, so
// what followed fn's return was abort and backoff, not commit.
func (w *wtrace) retryTail() {
	w.mu.Lock()
	if n := len(w.stack); n > 0 && w.stack[n-1].name == spCommitPhase {
		w.stack[n-1].name = spRetryTail
		if idx := w.stack[n-1].idx; idx >= 0 {
			w.spans[idx].name = spRetryTail
		}
	}
	w.mu.Unlock()
}

// addChild records a finished span under the innermost open span. It is the
// entry point for calls timed on another goroutine on this worker's behalf.
func (w *wtrace) addChild(name spanName, start, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.stack)
	if n == 0 {
		return
	}
	top := &w.stack[n-1]
	if start < top.start {
		start = top.start
	}
	if end < start {
		end = start
	}
	dur := end - start
	t := &w.totals[name]
	t.count++
	t.total += dur
	t.self += dur
	if wantsLatency(name) {
		w.lat[name] = append(w.lat[name], dur)
	}
	top.child += dur
	if top.idx >= 0 && len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, span{name: name, obj: -1, parent: top.idx, txn: w.txn, start: start, end: end})
	}
}

func wantsLatency(n spanName) bool {
	return n == spLockInvoke || n == spAppend
}

// tracer owns the worker contexts of one traced run and the table that lets a
// decorator find the worker a call belongs to: by transaction id for the
// protocol seams, by X-Request-Id for the HTTP seam.
type tracer struct {
	epoch   time.Time
	workers []*wtrace
	byKey   sync.Map // string -> *wtrace
	mu      sync.Mutex
	guards  []*guardDecorator
	backend []*backendDecorator
	// guardKept counts the conflict tests whose duration was kept.
	guardKept atomic.Int64
	// extra receives one-off layer timings taken during set-up (ms); it is
	// the run's runCtx.extra.
	extra map[string]float64
}

func newTracer(workers int, extra map[string]float64) *tracer {
	tr := &tracer{epoch: time.Now(), extra: extra}
	for i := 0; i < workers; i++ {
		tr.workers = append(tr.workers, newWtrace(tr.epoch, i))
	}
	return tr
}

func (tr *tracer) bind(key string, w *wtrace) { tr.byKey.Store(key, w) }
func (tr *tracer) unbind(key string)          { tr.byKey.Delete(key) }

func (tr *tracer) lookup(key string) *wtrace {
	if v, ok := tr.byKey.Load(key); ok {
		return v.(*wtrace)
	}
	return nil
}

// reset drops everything recorded so far (the traced warm-up).
func (tr *tracer) reset() {
	for _, w := range tr.workers {
		w.mu.Lock()
		w.spans = w.spans[:0]
		w.totals = [nSpanNames]nameTotal{}
		for i := range w.lat {
			w.lat[i] = w.lat[i][:0]
		}
		w.mu.Unlock()
	}
	for _, g := range tr.guards {
		g.mu.Lock()
		g.calls, g.denied, g.total = 0, 0, 0
		g.lat = g.lat[:0]
		g.sample = g.sample[:0]
		g.mu.Unlock()
	}
	tr.guardKept.Store(0)
	for _, b := range tr.backend {
		b.mu.Lock()
		b.appendCalls, b.appendFails, b.recordsNS = 0, 0, 0
		b.mu.Unlock()
	}
}

// total sums one span name over the workers.
func (tr *tracer) total(name spanName) nameTotal {
	var out nameTotal
	for _, w := range tr.workers {
		w.mu.Lock()
		t := w.totals[name]
		w.mu.Unlock()
		out.count += t.count
		out.total += t.total
		out.self += t.self
	}
	return out
}

// latencies merges the kept per-call durations of one span name, sorted.
func (tr *tracer) latencies(name spanName) []int64 {
	var out []int64
	for _, w := range tr.workers {
		w.mu.Lock()
		out = append(out, w.lat[name]...)
		w.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- locking.Guard ---------------------------------------------------------

// guardCall is one sampled conflict test, attached to its invoke span when
// the trace file is written.
type guardCall struct{ start, end int64 }

// guardDecorator times one object's conflict tests. The Guard interface
// carries no transaction identity, so calls are totalled per object (the
// object's own mutex serialises them; the decorator's mutex only orders them
// against the final read) and a sample is matched to invoke spans by object
// and time containment afterwards.
type guardDecorator struct {
	locking.Guard
	tr  *tracer
	obj int32

	mu     sync.Mutex
	calls  int64
	denied int64
	total  int64
	lat    []int64
	sample []guardCall
}

// maxGuardSample bounds the conflict tests kept for the trace file,
// maxGuardLat the durations kept for the p99 (the first ones of the window,
// whichever objects they fall on).
const (
	maxGuardSample = 100_000
	maxGuardLat    = 1 << 21
)

// guard decorates the conflict rule of object number obj.
func (tr *tracer) guard(g locking.Guard, obj int) locking.Guard {
	d := &guardDecorator{Guard: g, tr: tr, obj: int32(obj)}
	tr.mu.Lock() // a site may ask for an object's guard again from its own goroutines
	tr.guards = append(tr.guards, d)
	tr.mu.Unlock()
	return d
}

func (g *guardDecorator) Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	start := time.Since(g.tr.epoch)
	ok, err := g.Guard.Allowed(base, mine, cand, others)
	end := time.Since(g.tr.epoch)
	g.mu.Lock()
	g.calls++
	if !ok {
		g.denied++
	}
	g.total += int64(end - start)
	if n := g.tr.guardKept.Add(1); n <= maxGuardLat {
		g.lat = append(g.lat, int64(end-start))
		if n <= maxGuardSample {
			g.sample = append(g.sample, guardCall{int64(start), int64(end)})
		}
	}
	g.mu.Unlock()
	return ok, err
}

// InvalidateConflictCache forwards the cascade engine's cache hook, which
// the locking object discovers by type assertion.
func (g *guardDecorator) InvalidateConflictCache() {
	if inv, ok := g.Guard.(interface{ InvalidateConflictCache() }); ok {
		inv.InvalidateConflictCache()
	}
}

// StateBased forwards the engine's self-report (see locking.New).
func (g *guardDecorator) StateBased() bool {
	sb, ok := g.Guard.(interface{ StateBased() bool })
	return ok && sb.StateBased()
}

// guardTotals sums the conflict tests of every decorated object.
func (tr *tracer) guardTotals() (calls, denied, total int64, lat []int64) {
	for _, g := range tr.guards {
		g.mu.Lock()
		calls += g.calls
		denied += g.denied
		total += g.total
		lat = append(lat, g.lat...)
		g.mu.Unlock()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return calls, denied, total, lat
}

// --- cc.Resource -----------------------------------------------------------

// resourceDecorator times one object's protocol calls. invoke/prepare/finish
// name the spans (the layer differs per stack); snapshot, when set, names
// invocations of read-only transactions instead.
type resourceDecorator struct {
	cc.Resource
	tr       *tracer
	obj      int32
	invoke   spanName
	snapshot spanName
	prepare  spanName
	finish   spanName
}

func (tr *tracer) resource(r cc.Resource, obj int, invoke, prepare, finish spanName) *resourceDecorator {
	return &resourceDecorator{Resource: r, tr: tr, obj: int32(obj), invoke: invoke, snapshot: invoke, prepare: prepare, finish: finish}
}

func (d *resourceDecorator) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	w := d.tr.lookup(string(txn.ID))
	if w == nil {
		return d.Resource.Invoke(txn, inv)
	}
	name := d.invoke
	if txn.ReadOnly {
		name = d.snapshot
	}
	w.open(name, d.obj)
	v, err := d.Resource.Invoke(txn, inv)
	w.close()
	return v, err
}

func (d *resourceDecorator) Prepare(txn *cc.TxnInfo) error {
	w := d.tr.lookup(string(txn.ID))
	if w == nil {
		return d.Resource.Prepare(txn)
	}
	w.open(d.prepare, -1)
	err := d.Resource.Prepare(txn)
	w.close()
	return err
}

func (d *resourceDecorator) Commit(txn *cc.TxnInfo, ts histories.Timestamp) {
	w := d.tr.lookup(string(txn.ID))
	if w == nil {
		d.Resource.Commit(txn, ts)
		return
	}
	w.open(d.finish, -1)
	d.Resource.Commit(txn, ts)
	w.close()
}

func (d *resourceDecorator) Abort(txn *cc.TxnInfo) {
	w := d.tr.lookup(string(txn.ID))
	if w == nil {
		d.Resource.Abort(txn)
		return
	}
	w.open(d.finish, -1)
	d.Resource.Abort(txn)
	w.close()
}

// The transaction runtime discovers these capabilities by type assertion;
// a decorator that hid them would change what the traced stack does (no
// intentions in the log, no participant list, a 2PC round for snapshot
// reads).

func (d *resourceDecorator) PendingCalls(txn *cc.TxnInfo) []spec.Call {
	if cr, ok := d.Resource.(interface {
		PendingCalls(*cc.TxnInfo) []spec.Call
	}); ok {
		return cr.PendingCalls(txn)
	}
	return nil
}

func (d *resourceDecorator) ParticipantSiteFor(txn histories.ActivityID) string {
	if sr, ok := d.Resource.(interface {
		ParticipantSiteFor(histories.ActivityID) string
	}); ok {
		return sr.ParticipantSiteFor(txn)
	}
	return ""
}

func (d *resourceDecorator) SnapshotRead() bool {
	sr, ok := d.Resource.(interface{ SnapshotRead() bool })
	return ok && sr.SnapshotRead()
}

func (d *resourceDecorator) Err() error {
	if e, ok := d.Resource.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// --- recovery.Backend ------------------------------------------------------

// backendDecorator times a write-ahead log. An append is charged to every
// transaction whose records it carries: the group-commit leader makes the
// call, the riders are blocked on it for the same interval.
type backendDecorator struct {
	recovery.Backend
	tr   *tracer
	name spanName

	mu          sync.Mutex
	appendCalls int64
	appendFails int64
	recordsNS   int64
}

func (tr *tracer) backendFor(b recovery.Backend, name spanName) *backendDecorator {
	d := &backendDecorator{Backend: b, tr: tr, name: name}
	tr.backend = append(tr.backend, d)
	return d
}

func (d *backendDecorator) Append(r recovery.Record) error {
	start := int64(time.Since(d.tr.epoch))
	err := d.Backend.Append(r)
	end := int64(time.Since(d.tr.epoch))
	d.note(1, err != nil)
	if w := d.tr.lookup(string(r.Txn)); w != nil {
		w.addChild(d.name, start, end)
	}
	return err
}

func (d *backendDecorator) AppendBatch(groups [][]recovery.Record) []error {
	start := int64(time.Since(d.tr.epoch))
	errs := d.Backend.AppendBatch(groups)
	end := int64(time.Since(d.tr.epoch))
	failed := false
	for _, err := range errs {
		failed = failed || err != nil
	}
	d.note(1, failed)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if w := d.tr.lookup(string(g[0].Txn)); w != nil {
			w.addChild(d.name, start, end)
		}
	}
	return errs
}

func (d *backendDecorator) Records() []recovery.Record {
	start := time.Now()
	recs := d.Backend.Records()
	d.mu.Lock()
	d.recordsNS += int64(time.Since(start))
	d.mu.Unlock()
	return recs
}

func (d *backendDecorator) note(calls int64, failed bool) {
	d.mu.Lock()
	d.appendCalls += calls
	if failed {
		d.appendFails++
	}
	d.mu.Unlock()
}

// backendTotals sums the decorated logs carrying spans of the given name.
func (tr *tracer) backendTotals(name spanName) (calls, fails, recordsNS int64) {
	for _, b := range tr.backend {
		if b.name != name {
			continue
		}
		b.mu.Lock()
		calls += b.appendCalls
		fails += b.appendFails
		recordsNS += b.recordsNS
		b.mu.Unlock()
	}
	return calls, fails, recordsNS
}

// --- tx.Coordinator --------------------------------------------------------

type coordinatorDecorator struct {
	tx.Coordinator
	tr *tracer
}

func (d coordinatorDecorator) Decide(txn histories.ActivityID, commit bool) error {
	w := d.tr.lookup(string(txn))
	if w == nil {
		return d.Coordinator.Decide(txn, commit)
	}
	w.open(spDistDecide, -1)
	err := d.Coordinator.Decide(txn, commit)
	w.close()
	return err
}

// --- tx.ReadRouter ---------------------------------------------------------

// readRouter decorates the resources a read router hands out, so replica
// snapshot reads are timed where the runtime calls them.
func (tr *tracer) readRouter(rr tx.ReadRouter) tx.ReadRouter {
	if rr == nil {
		return nil
	}
	return func(obj histories.ObjectID) cc.Resource {
		r := rr(obj)
		if r == nil {
			return nil
		}
		return tr.resource(r, -1, spReplRead, spReplRead, spReplRead)
	}
}

// --- http.Handler ----------------------------------------------------------

// handler times the service's HTTP handler from entry to the first byte of
// the response body, and hands the span to the worker whose request it is
// (found by X-Request-Id) before that byte is written, so the worker is still
// inside the client call the span belongs under.
func (tr *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w := tr.lookup(r.Header.Get("X-Request-Id"))
		if w == nil {
			next.ServeHTTP(rw, r)
			return
		}
		next.ServeHTTP(&timedWriter{ResponseWriter: rw, w: w, start: w.now()}, r)
	})
}

type timedWriter struct {
	http.ResponseWriter
	w     *wtrace
	start int64
	done  bool
}

func (t *timedWriter) Write(p []byte) (int, error) {
	if !t.done {
		t.done = true
		t.w.addChild(spHandler, t.start, t.w.now())
	}
	return t.ResponseWriter.Write(p)
}

// bindingTransport announces each outgoing request's id to the tracer for
// the duration of the round trip (the client library picks the id).
type bindingTransport struct {
	base http.RoundTripper
	tr   *tracer
	w    *wtrace
}

func (b bindingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !b.w.inTransaction() {
		return b.base.RoundTrip(req) // seeding, reading balances
	}
	id := req.Header.Get("X-Request-Id")
	b.tr.bind(id, b.w)
	b.w.open(spClientCall, -1)
	resp, err := b.base.RoundTrip(req)
	b.w.close()
	b.tr.unbind(id)
	return resp, err
}

// --- trace file ------------------------------------------------------------

// fileSpan is the trace file's span record.
type fileSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Txn    int64  `json:"txn"`
}

// export merges the workers' sampled spans into one list with list-wide
// parent indices, then hangs each sampled conflict test under the invoke span
// of the same object that contains it. When two transactions were inside the
// same object at once the later-started invocation gets the test, which can
// only misplace it between two simultaneous invocations of one object; the
// totals do not depend on the match.
func (tr *tracer) export() []fileSpan {
	var out []fileSpan
	type invokeRef struct {
		idx        int
		start, end int64
	}
	invokes := map[int32][]invokeRef{}
	for _, w := range tr.workers {
		w.mu.Lock()
		base := len(out)
		for i, s := range w.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			out = append(out, fileSpan{Name: spanNames[s.name], Start: s.start, End: s.end, Parent: parent, Txn: s.txn})
			if s.obj >= 0 {
				invokes[s.obj] = append(invokes[s.obj], invokeRef{base + i, s.start, s.end})
			}
		}
		w.mu.Unlock()
	}
	for _, g := range tr.guards {
		refs := invokes[g.obj]
		sort.Slice(refs, func(i, j int) bool { return refs[i].start < refs[j].start })
		g.mu.Lock()
		for _, c := range g.sample {
			// Invocations of one object that contain c: scan back from the
			// last one started before c.
			at := sort.Search(len(refs), func(i int) bool { return refs[i].start > c.start })
			for j := at - 1; j >= 0 && j >= at-4; j-- {
				if refs[j].end >= c.end {
					out = append(out, fileSpan{Name: spanNames[spAllowed], Start: c.start, End: c.end, Parent: refs[j].idx, Txn: out[refs[j].idx].Txn})
					break
				}
			}
		}
		g.mu.Unlock()
	}
	return out
}
