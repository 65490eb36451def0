// Package service is the network front door of the library: a stdlib
// net/http JSON transaction service wrapping the weihl83.System facade
// with per-tenant object namespaces, admission control, and graceful
// drain.
//
// The service treats the boundary itself as part of the fault-tolerant
// concurrency design, not an afterthought:
//
//   - Transactions are one-shot: a request carries the whole operation
//     list, so a vanished client can never strand locks mid-conversation.
//   - Admission sheds on PENDING QUEUE DEPTH, not on worker count: a
//     request that cannot get an execution slot waits in a bounded queue;
//     when the queue is full the service answers 429 with Retry-After
//     instead of letting open-loop arrivals build an unbounded backlog.
//     Per-tenant in-flight bounds keep one tenant's contention storm from
//     starving the others.
//   - Graceful drain stops admissions first (503 "draining"), gives
//     in-flight transactions a grace period to finish, then cancels the
//     stragglers through their contexts — the same RunCtx cancellation
//     path every retry chain already honours — and snapshots metrics.
//   - The fault injector reaches the network layer too: svc.accept.drop
//     kills admitted requests without a response, svc.response.torn cuts
//     response bodies after the transaction committed, svc.drain.timeout
//     collapses the drain grace period.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weihl83"
	"weihl83/internal/fault"
	"weihl83/internal/obs"
	"weihl83/internal/tx"
)

// Observability: service-wide counters and histograms (per-tenant
// instruments live on the tenant).
var (
	obsRequests   = obs.Default.Counter("svc.http.requests")
	obsAdmitted   = obs.Default.Counter("svc.admitted")
	obsShedQueue  = obs.Default.Counter("svc.shed.queue")
	obsShedDrain  = obs.Default.Counter("svc.shed.draining")
	obsAcceptDrop = obs.Default.Counter("svc.accept.dropped")
	obsRespTorn   = obs.Default.Counter("svc.response.torn")
	obsDrainKill  = obs.Default.Counter("svc.drain.cancelled")
	obsCommitted  = obs.Default.Counter("svc.tx.committed")
	obsFailed     = obs.Default.Counter("svc.tx.failed")

	obsQueueWait = obs.Default.Histogram("svc.queue.wait_ns")
	obsTxLatency = obs.Default.Histogram("svc.tx.latency_ns")
)

// Options configures a Server.
type Options struct {
	// MaxQueueDepth bounds requests waiting for an execution slot across
	// the whole server; arrivals beyond it are shed with 429 (default 256).
	MaxQueueDepth int
	// MaxInFlight bounds concurrently executing transactions per tenant
	// (default 64; TenantConfig.MaxInFlight overrides per tenant).
	MaxInFlight int
	// RetryAfter is the advisory Retry-After delay attached to shed and
	// draining responses (default 50ms).
	RetryAfter time.Duration
	// DrainTimeout is the grace period Drain gives in-flight transactions
	// before cancelling them (default 5s).
	DrainTimeout time.Duration
	// DefaultTenant seeds the options of lazily created tenants.
	DefaultTenant TenantOptions
	// DataDir, when non-empty, puts every tenant on a file-backed
	// write-ahead log under DataDir/<tenant> with a persisted object
	// catalog, so a drained server restarted on the same directory
	// recovers each tenant's objects and committed state. Durable tenants
	// require the Dynamic property. Empty keeps tenants in memory.
	DataDir string
	// Injector, when non-nil, arms the service fault points
	// (svc.accept.drop, svc.response.torn, svc.drain.timeout).
	Injector *fault.Injector
}

func (o *Options) fill() {
	if o.MaxQueueDepth <= 0 {
		o.MaxQueueDepth = 256
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	d := &o.DefaultTenant
	if d.Property == 0 {
		d.Property = weihl83.Dynamic
	}
	if d.Guard == 0 {
		d.Guard = weihl83.GuardCommut
	}
	if d.MaxRetries <= 0 {
		d.MaxRetries = 25
	}
	if d.MaxInFlight <= 0 {
		d.MaxInFlight = o.MaxInFlight
	}
}

// Server is the multi-tenant transaction service. Create one with New,
// serve its Handler, and call Drain before exit.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu      sync.Mutex
	tenants map[string]*tenant

	// queued counts requests waiting for an execution slot (the admission
	// queue); the shed decision reads it.
	queued atomic.Int64
	// running gauges transactions currently executing, reported as the
	// count of drain casualties when the grace period expires.
	running atomic.Int64

	// draining flips once; drainCh wakes queued waiters so they fail fast.
	draining atomic.Bool
	drainCh  chan struct{}

	// baseCtx bounds every transaction; cancelled when the drain grace
	// period expires, which tears down in-flight retry chains through the
	// ordinary RunCtx cancellation path.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// wg tracks in-flight handlers (admission through response), so Drain
	// can wait for the tail.
	wg sync.WaitGroup

	// reqSeq numbers requests that arrive without an X-Request-Id.
	reqSeq atomic.Int64
}

// New returns a Server (zero-valued Options fields select defaults).
func New(opts Options) *Server {
	(&opts).fill()
	s := &Server{
		opts:    opts,
		tenants: make(map[string]*tenant),
		drainCh: make(chan struct{}),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tx", s.handleTx)
	mux.HandleFunc("POST /v1/tenants", s.handleTenant)
	mux.HandleFunc("POST /v1/objects", s.handleObject)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// TenantSystem exposes a tenant's System (nil if the tenant does not
// exist): embedders and tests reach the recorded history and the offline
// checkers through it.
func (s *Server) TenantSystem(name string) *weihl83.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn := s.tenants[name]; tn != nil {
		return tn.sys
	}
	return nil
}

// tenant returns the named tenant, creating it lazily with the server's
// default options on first use.
func (s *Server) tenant(name string) (*tenant, error) {
	if name == "" {
		return nil, errors.New("missing tenant")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn := s.tenants[name]; tn != nil {
		return tn, nil
	}
	tn, err := newTenant(name, s.opts.DefaultTenant, s.opts.DataDir)
	if err != nil {
		return nil, err
	}
	s.tenants[name] = tn
	return tn, nil
}

// requestID echoes the client's X-Request-Id (assigning one otherwise) so
// a response — or a server-side trace — can be tied back to the request.
func (s *Server) requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = "s" + strconv.FormatInt(s.reqSeq.Add(1), 10)
	}
	w.Header().Set("X-Request-Id", id)
	return id
}

// bodies recycles the buffers /v1/tx reads requests into and encodes
// responses in.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers bodies keeps: one huge request must not
// pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// decodeBody reads the whole request body and decodes it into v with
// encoding/json, which refuses anything but exactly one JSON document
// (surrounding whitespace aside).
func decodeBody(r *http.Request, v any) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	return json.Unmarshal(data, v)
}

// writeJSON writes one JSON response encoded by encoding/json.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeRaw(w, status, raw)
}

// readTx reads the whole /v1/tx request body into a pooled buffer and
// decodes it in one pass; the body must hold exactly one JSON document.
func readTx(r *http.Request, req *TxRequest) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer recycle(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	return req.DecodeJSON(buf.Bytes())
}

// writeTx writes one /v1/tx response through the hand-written codec.
func (s *Server) writeTx(w http.ResponseWriter, status int, resp TxResponse) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	s.writeRaw(w, status, resp.AppendJSON(buf.AvailableBuffer()))
	recycle(buf)
}

func recycle(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}

// writeRaw writes an encoded JSON response, subject to the
// svc.response.torn fault point: a torn response writes a prefix of the
// body and kills the connection, so the client sees the request fail AFTER
// its effects may have committed.
func (s *Server) writeRaw(w http.ResponseWriter, status int, raw []byte) {
	if s.opts.Injector.Fires(fault.SvcResponseTorn) && len(raw) > 1 {
		obsRespTorn.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.WriteHeader(status)
		_, _ = w.Write(raw[:len(raw)/2])
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// shed answers an admission refusal: 429 (queue full) or 503 (draining),
// both with an advisory Retry-After so well-behaved clients pace their
// backoff with the server's estimate.
func (s *Server) shed(w http.ResponseWriter, code string) {
	status := http.StatusTooManyRequests
	if code == CodeDraining {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.FormatFloat(s.opts.RetryAfter.Seconds(), 'f', 3, 64))
	s.writeTx(w, status, TxResponse{Error: "admission refused", Code: code, Retryable: true})
}

// handleTx runs one transaction.
func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	s.requestID(w, r)
	s.wg.Add(1)
	defer s.wg.Done()

	if s.draining.Load() {
		obsShedDrain.Inc()
		s.shed(w, CodeDraining)
		return
	}
	var req TxRequest
	if err := readTx(r, &req); err != nil {
		s.writeTx(w, http.StatusBadRequest, TxResponse{Error: "decoding request: " + err.Error(), Code: CodeBadReq})
		return
	}
	if len(req.Ops) == 0 {
		s.writeTx(w, http.StatusBadRequest, TxResponse{Error: "empty transaction", Code: CodeBadReq})
		return
	}
	tn, err := s.tenant(req.Tenant)
	if err != nil {
		s.writeTx(w, http.StatusBadRequest, TxResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}

	// Admission: join the pending queue unless it is already at depth —
	// the shed decision is queue depth, never "are workers busy" — then
	// wait (bounded by the client context and the drain signal) for one of
	// the tenant's execution slots.
	if depth := s.queued.Add(1); depth > int64(s.opts.MaxQueueDepth) {
		s.queued.Add(-1)
		obsShedQueue.Inc()
		tn.shed.Inc()
		s.shed(w, CodeShed)
		return
	}
	waitStart := time.Now()
	select {
	case tn.inflight <- struct{}{}:
	default:
		select {
		case tn.inflight <- struct{}{}:
		case <-r.Context().Done():
			s.queued.Add(-1)
			s.writeTx(w, http.StatusServiceUnavailable, TxResponse{Error: "client gone while queued", Code: CodeShed, Retryable: true})
			return
		case <-s.drainCh:
			s.queued.Add(-1)
			obsShedDrain.Inc()
			s.shed(w, CodeDraining)
			return
		}
	}
	s.queued.Add(-1)
	obsQueueWait.Observe(int64(time.Since(waitStart)))
	obsAdmitted.Inc()
	defer func() { <-tn.inflight }()

	// An accept-drop kills the admitted request with no response at all —
	// the client sees a transport error on a transaction that never ran.
	if s.opts.Injector.Fires(fault.SvcAcceptDrop) {
		obsAcceptDrop.Inc()
		panic(http.ErrAbortHandler)
	}

	status, resp := s.runTx(r.Context(), tn, &req)
	s.writeTx(w, status, resp)
}

// runTx executes the transaction under the merged request + server
// lifetime context and maps the outcome onto the wire.
func (s *Server) runTx(reqCtx context.Context, tn *tenant, req *TxRequest) (int, TxResponse) {
	for _, op := range req.Ops {
		if err := tn.ensure(op.Object); err != nil {
			return http.StatusBadRequest, TxResponse{Error: err.Error(), Code: CodeBadReq}
		}
	}
	// The transaction lives under BOTH the request context (client gone →
	// stop) and the server's base context (drain deadline → stop): RunCtx
	// aborts the attempt in flight or in backoff and releases every lock.
	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	s.running.Add(1)
	defer s.running.Add(-1)

	var results []weihl83.Value
	var txnID string
	run := tn.sys.RunCtx
	if req.ReadOnly {
		run = tn.sys.RunReadOnlyCtx
	}
	start := time.Now()
	err := run(ctx, func(t *weihl83.Txn) error {
		results = results[:0]
		txnID = string(t.ID())
		for _, op := range req.Ops {
			v, err := t.Invoke(weihl83.ObjectID(op.Object), op.Op, op.Arg)
			if err != nil {
				return err
			}
			results = append(results, v)
		}
		return nil
	})
	elapsed := time.Since(start)
	obsTxLatency.Observe(int64(elapsed))
	tn.latency.Observe(int64(elapsed))
	if err != nil {
		obsFailed.Inc()
		tn.failed.Inc()
		return errorStatus(err, s.baseCtx.Err() != nil)
	}
	obsCommitted.Inc()
	tn.committed.Inc()
	return http.StatusOK, TxResponse{Txn: txnID, Committed: true, Results: results}
}

// errorStatus maps a transaction error onto (HTTP status, response).
// Retryable protocol aborts — including exhausted server-side retry
// budgets — are 503 + retryable, so the client's Pacer takes over where
// the server's left off; cc.ErrUnavailable semantics survive the wire.
func errorStatus(err error, drained bool) (int, TxResponse) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code := CodeShed
		if drained {
			code = CodeDraining
		}
		return http.StatusServiceUnavailable, TxResponse{Error: err.Error(), Code: code, Retryable: true}
	case errors.Is(err, tx.ErrNoResource):
		return http.StatusNotFound, TxResponse{Error: err.Error(), Code: CodeNoObject}
	case weihl83.Retryable(err):
		return http.StatusServiceUnavailable, TxResponse{Error: err.Error(), Code: weihl83.AbortCause(err), Retryable: true}
	case weihl83.AbortCause(err) != "other":
		return http.StatusUnprocessableEntity, TxResponse{Error: err.Error(), Code: weihl83.AbortCause(err)}
	default:
		return http.StatusInternalServerError, TxResponse{Error: err.Error(), Code: CodeInternal}
	}
}

// handleTenant provisions a tenant with explicit options. Provisioning an
// existing tenant is an error (its System already holds live state); the
// same configuration twice is idempotent success.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	s.requestID(w, r)
	s.wg.Add(1)
	defer s.wg.Done()
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, StatusResponse{Error: "draining", Code: CodeDraining})
		return
	}
	var cfg TenantConfig
	if err := decodeBody(r, &cfg); err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	if cfg.Tenant == "" {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: "missing tenant", Code: CodeBadReq})
		return
	}
	opts, err := resolveTenantOptions(s.opts.DefaultTenant, cfg)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.tenants[cfg.Tenant]; existing != nil {
		if sameTenantOptions(existing.opts, opts) {
			s.writeJSON(w, http.StatusOK, StatusResponse{OK: true})
		} else {
			s.writeJSON(w, http.StatusConflict, StatusResponse{Error: "tenant exists with different options", Code: CodeBadReq})
		}
		return
	}
	tn, err := newTenant(cfg.Tenant, opts, s.opts.DataDir)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	s.tenants[cfg.Tenant] = tn
	s.writeJSON(w, http.StatusOK, StatusResponse{OK: true})
}

// handleObject creates one object in a tenant namespace.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	s.requestID(w, r)
	s.wg.Add(1)
	defer s.wg.Done()
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, StatusResponse{Error: "draining", Code: CodeDraining})
		return
	}
	var req ObjectRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	if req.Object == "" || req.Type == "" {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: "missing object or type", Code: CodeBadReq})
		return
	}
	tn, err := s.tenant(req.Tenant)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	if err := tn.addObject(req.Object, req.Type, req.Guard); err != nil {
		s.writeJSON(w, http.StatusBadRequest, StatusResponse{Error: err.Error(), Code: CodeBadReq})
		return
	}
	s.writeJSON(w, http.StatusOK, StatusResponse{OK: true})
}

// handleMetrics serves the process-wide obs snapshot; ?tenant=NAME cuts
// the view down to that tenant's svc.tenant.<name>.* instruments.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requestID(w, r)
	snap := obs.Default.Snapshot(false)
	if t := r.URL.Query().Get("tenant"); t != "" {
		prefix := "svc.tenant." + t + "."
		counters := make(map[string]int64)
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				counters[name] = v
			}
		}
		hists := make(map[string]obs.HistogramSnapshot)
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, prefix) {
				hists[name] = h
			}
		}
		snap = obs.Snapshot{Counters: counters, Histograms: hists}
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// handleHealthz reports liveness and drain state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requestID(w, r)
	s.mu.Lock()
	tenants := len(s.tenants)
	s.mu.Unlock()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"tenants": tenants,
		"queued":  s.queued.Load(),
		"running": s.running.Load(),
	})
}

// Drain shuts the service down gracefully: stop admitting (new requests
// answer 503 "draining", queued waiters fail fast), give in-flight
// transactions the configured grace period, cancel whatever remains
// through the RunCtx context path, and return a final metrics snapshot.
// The svc.drain.timeout fault point collapses the grace period to zero.
// Drain is idempotent; concurrent calls all block until the first finishes.
func (s *Server) Drain() obs.Snapshot {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	grace := s.opts.DrainTimeout
	if s.opts.Injector.Fires(fault.SvcDrainTimeout) {
		grace = 0
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		obsDrainKill.Add(s.running.Load())
		s.cancelBase()
		<-done
	}
	// With every handler gone nothing can append: close the tenants'
	// write-ahead logs so file-backed state is cleanly released. (Close is
	// idempotent, so concurrent Drain calls are safe.)
	s.mu.Lock()
	for _, tn := range s.tenants {
		tn.close()
	}
	s.mu.Unlock()
	return obs.Default.Snapshot(false)
}
