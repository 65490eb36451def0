// Package client is the client library of the transaction service
// (internal/service): connection-pooled HTTP, per-request ids, and
// retry/backoff that reuses the library's own Pacer, so server-side shed
// feeds the same jittered-backoff machinery the transaction runtime uses
// against protocol aborts.
//
// Error model: everything transient — 429 shed, 503 unavailable/draining,
// connection resets, torn response bodies — comes back wrapping
// cc.ErrUnavailable, so weihl83.Retryable reports true for it and one
// retry vocabulary spans the whole stack, from a lock conflict inside an
// object to a connection dying under the load balancer.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"weihl83"
	"weihl83/internal/cc"
	"weihl83/internal/obs"
	"weihl83/internal/service"
)

// Observability: client-side counters (shared registry, so a process that
// runs both client and service sees both sides of the wire in one snapshot).
var (
	obsRequests = obs.Default.Counter("svc.client.requests")
	obsRetries  = obs.Default.Counter("svc.client.retries")
	obsShed     = obs.Default.Counter("svc.client.shed")
	obsTorn     = obs.Default.Counter("svc.client.torn")
	obsNetErr   = obs.Default.Counter("svc.client.neterr")
)

// ErrShed: the server refused admission (queue full or draining) and asked
// the client to back off. Wraps cc.ErrUnavailable — retryable.
var ErrShed = fmt.Errorf("service shed request: %w", cc.ErrUnavailable)

// ErrTorn: the response died mid-body; the transaction MAY have committed.
// Wraps cc.ErrUnavailable — retrying is the right move for workloads whose
// oracles tolerate at-least-once (conservation), and the reason the
// service's one-shot transactions carry no hidden client-side state.
var ErrTorn = fmt.Errorf("service response torn: %w", cc.ErrUnavailable)

// Error is a non-retryable service-level failure (bad request, unknown
// object, invalid operation).
type Error struct {
	Status int
	Code   string
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("service: %s (http %d, code %s)", e.Msg, e.Status, e.Code)
}

// Options configures a Client.
type Options struct {
	// Tenant names the namespace every call runs in. Required.
	Tenant string
	// MaxRetries bounds Run's retry chain (default 16).
	MaxRetries int
	// Backoff paces retries (zero value = library defaults).
	Backoff weihl83.Backoff
	// HTTPClient overrides the pooled default (tests, custom transports).
	HTTPClient *http.Client
}

// clientSeq distinguishes the request-id streams of clients in one
// process.
var clientSeq atomic.Int64

// Client talks to one service endpoint on behalf of one tenant. Safe for
// concurrent use; each Run call is its own retry chain with its own Pacer.
type Client struct {
	base   string
	opts   Options
	hc     *http.Client
	prefix string
	reqSeq atomic.Int64
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:7083"). The default transport pools generously:
// open-loop load at thousands of concurrent requests must not serialize on
// the two idle connections net/http keeps per host out of the box.
func New(baseURL string, opts Options) *Client {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 16
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        0, // unlimited pool, scoped by per-host below
				MaxIdleConnsPerHost: 4096,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return &Client{
		base:   baseURL,
		opts:   opts,
		hc:     hc,
		prefix: "c" + strconv.FormatInt(clientSeq.Add(1), 10),
	}
}

// post issues one JSON POST with a fresh request id and decodes the JSON
// response into out. Transport failures and torn bodies map onto
// cc.ErrUnavailable; retryAfter carries the server's advisory delay when
// it sent one.
func (c *Client) post(ctx context.Context, path string, body, out any) (status int, retryAfter time.Duration, err error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, 0, fmt.Errorf("client: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, 0, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", c.prefix+"-"+strconv.FormatInt(c.reqSeq.Add(1), 10))
	obsRequests.Inc()
	resp, err := c.hc.Do(req)
	if err != nil {
		obsNetErr.Inc()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, 0, ctxErr
		}
		// Connection refused/reset, dropped before response: the request —
		// and the accept-drop fault point — look identical from here.
		return 0, 0, fmt.Errorf("client: %v: %w", err, cc.ErrUnavailable)
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, perr := strconv.ParseFloat(ra, 64); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs * float64(time.Second))
		}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Torn mid-body: status and headers arrived, the JSON did not.
		obsTorn.Inc()
		return resp.StatusCode, retryAfter, fmt.Errorf("client: reading response: %v: %w", err, ErrTorn)
	}
	if err := json.Unmarshal(data, out); err != nil {
		obsTorn.Inc()
		return resp.StatusCode, retryAfter, fmt.Errorf("client: decoding response: %v: %w", err, ErrTorn)
	}
	return resp.StatusCode, retryAfter, nil
}

// txErr maps one /v1/tx exchange onto the library error vocabulary.
func txErr(status int, resp *service.TxResponse) error {
	if resp.Committed {
		return nil
	}
	switch {
	case status == http.StatusTooManyRequests,
		resp.Code == service.CodeShed, resp.Code == service.CodeDraining:
		return fmt.Errorf("%s: %w", resp.Error, ErrShed)
	case resp.Retryable:
		return fmt.Errorf("service: %s (code %s): %w", resp.Error, resp.Code, cc.ErrUnavailable)
	default:
		return &Error{Status: status, Code: resp.Code, Msg: resp.Error}
	}
}

// Do submits one transaction, one attempt, no retry: callers running their
// own chains (the load generator counts attempts itself) pace with a Pacer
// around Do.
func (c *Client) Do(ctx context.Context, readOnly bool, ops []service.OpRequest) (*service.TxResponse, error) {
	var resp service.TxResponse
	status, retryAfter, err := c.post(ctx, "/v1/tx", service.TxRequest{
		Tenant:   c.opts.Tenant,
		ReadOnly: readOnly,
		Ops:      ops,
	}, &resp)
	_ = retryAfter
	if err != nil {
		return nil, err
	}
	if err := txErr(status, &resp); err != nil {
		return &resp, err
	}
	return &resp, nil
}

// Run submits one transaction with automatic retry: transient failures —
// server-side shed, outages on the wire, torn responses, retryable
// protocol aborts relayed by the server — are retried under the client's
// Backoff through a weihl83.Pacer, honouring the server's Retry-After as a
// floor on each pause. Non-retryable errors return immediately.
func (c *Client) Run(ctx context.Context, ops []service.OpRequest) (*service.TxResponse, error) {
	return c.run(ctx, false, ops)
}

// RunReadOnly is Run for a read-only transaction (an audit).
func (c *Client) RunReadOnly(ctx context.Context, ops []service.OpRequest) (*service.TxResponse, error) {
	return c.run(ctx, true, ops)
}

func (c *Client) run(ctx context.Context, readOnly bool, ops []service.OpRequest) (*service.TxResponse, error) {
	pacer := weihl83.NewPacer(c.opts.Backoff)
	req := service.TxRequest{Tenant: c.opts.Tenant, ReadOnly: readOnly, Ops: ops}
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			obsRetries.Inc()
			if err := c.pause(ctx, pacer, attempt-1, lastErr); err != nil {
				return nil, fmt.Errorf("client: %w (after %d attempts, last: %v)", err, attempt, lastErr)
			}
		}
		var resp service.TxResponse
		status, retryAfter, err := c.post(ctx, "/v1/tx", req, &resp)
		if err == nil {
			err = txErr(status, &resp)
			if err == nil {
				return &resp, nil
			}
		}
		if errors.Is(err, ErrShed) {
			obsShed.Inc()
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || !weihl83.Retryable(err) {
			return nil, err
		}
		lastErr = retryAfterErr{err: err, d: retryAfter}
	}
	return nil, fmt.Errorf("client: retries exhausted: %w", unwrapRetryAfter(lastErr))
}

// retryAfterErr threads the server's advisory delay to the next pause.
type retryAfterErr struct {
	err error
	d   time.Duration
}

func (e retryAfterErr) Error() string { return e.err.Error() }
func (e retryAfterErr) Unwrap() error { return e.err }

func unwrapRetryAfter(err error) error {
	var ra retryAfterErr
	if errors.As(err, &ra) {
		return ra.err
	}
	return err
}

// pause waits the Pacer's jittered backoff delay, extended to at least the
// server's Retry-After when one was given: the client backs off with the
// library's machinery, and the server's shed estimate is a floor, not a
// substitute.
func (c *Client) pause(ctx context.Context, pacer *weihl83.Pacer, retry int, lastErr error) error {
	start := time.Now()
	if err := pacer.Pause(ctx, retry); err != nil {
		return err
	}
	var ra retryAfterErr
	if errors.As(lastErr, &ra) && ra.d > 0 {
		if rem := ra.d - time.Since(start); rem > 0 {
			timer := time.NewTimer(rem)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
	return nil
}

// EnsureTenant provisions the client's tenant with explicit options
// (idempotent for identical repeats).
func (c *Client) EnsureTenant(ctx context.Context, cfg service.TenantConfig) error {
	cfg.Tenant = c.opts.Tenant
	return c.provision(ctx, "/v1/tenants", cfg)
}

// CreateObject creates one object in the client's tenant namespace
// (idempotent for identical repeats).
func (c *Client) CreateObject(ctx context.Context, object, typeName, guard string) error {
	return c.provision(ctx, "/v1/objects", service.ObjectRequest{
		Tenant: c.opts.Tenant,
		Object: object,
		Type:   typeName,
		Guard:  guard,
	})
}

// provision posts one provisioning request, retrying transient failures.
func (c *Client) provision(ctx context.Context, path string, body any) error {
	pacer := weihl83.NewPacer(c.opts.Backoff)
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := pacer.Pause(ctx, attempt-1); err != nil {
				return fmt.Errorf("client: %w (last: %v)", err, lastErr)
			}
		}
		var resp service.StatusResponse
		status, _, err := c.post(ctx, path, body, &resp)
		if err == nil {
			if resp.OK {
				return nil
			}
			err = &Error{Status: status, Code: resp.Code, Msg: resp.Error}
			if status == http.StatusServiceUnavailable {
				err = fmt.Errorf("%s: %w", resp.Error, cc.ErrUnavailable)
			}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || !weihl83.Retryable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("client: retries exhausted: %w", lastErr)
}

// Metrics fetches the server's metrics snapshot (scoped to one tenant when
// tenant is non-empty).
func (c *Client) Metrics(ctx context.Context, tenant string) (obs.Snapshot, error) {
	url := c.base + "/v1/metrics"
	if tenant != "" {
		url += "?tenant=" + tenant
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("client: %v: %w", err, cc.ErrUnavailable)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("client: decoding metrics: %w", err)
	}
	return snap, nil
}
