package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"weihl83"
	"weihl83/internal/client"
	"weihl83/internal/service"
	"weihl83/internal/value"
)

func startServer(t *testing.T, opts service.Options) (*service.Server, *client.Client, func(tenant string) *client.Client) {
	t.Helper()
	srv := service.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	mk := func(tenant string) *client.Client {
		return client.New(ts.URL, client.Options{Tenant: tenant, MaxRetries: 8})
	}
	return srv, mk("t"), mk
}

func deposit(object string, n int64) service.OpRequest {
	return service.OpRequest{Object: object, Op: "deposit", Arg: value.Int(n)}
}

func balance(object string) service.OpRequest {
	return service.OpRequest{Object: object, Op: "balance", Arg: value.Nil()}
}

// TestServiceCommitAndRead drives the happy path end to end over real HTTP:
// lazy tenant creation, auto-created objects, a committing write, and a
// read-only audit that sees it.
func TestServiceCommitAndRead(t *testing.T) {
	_, c, _ := startServer(t, service.Options{
		DefaultTenant: service.TenantOptions{AutoCreate: "account"},
	})
	ctx := context.Background()
	resp, err := c.Run(ctx, []service.OpRequest{deposit("a", 10), deposit("b", 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Committed || resp.Txn == "" || len(resp.Results) != 2 {
		t.Fatalf("write response %+v", resp)
	}
	audit, err := c.RunReadOnly(ctx, []service.OpRequest{balance("a"), balance("b")})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Results[0] != value.Int(10) || audit.Results[1] != value.Int(5) {
		t.Fatalf("audit read %v", audit.Results)
	}
}

// TestServiceReadOnlyRefusesDeposit: a read-only request that holds a
// deposit on a dynamic tenant is refused with 422 and code "readonly",
// and the balance it would have changed is untouched.
func TestServiceReadOnlyRefusesDeposit(t *testing.T) {
	_, c, _ := startServer(t, service.Options{
		DefaultTenant: service.TenantOptions{Property: weihl83.Dynamic, AutoCreate: "account"},
	})
	ctx := context.Background()
	if _, err := c.Run(ctx, []service.OpRequest{deposit("a", 10)}); err != nil {
		t.Fatal(err)
	}
	_, err := c.RunReadOnly(ctx, []service.OpRequest{balance("a"), deposit("a", 5)})
	var se *client.Error
	if !errors.As(err, &se) || se.Status != 422 || se.Code != "readonly" {
		t.Fatalf("read-only deposit error = %v, want 422 readonly", err)
	}
	audit, err := c.RunReadOnly(ctx, []service.OpRequest{balance("a")})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Results[0] != value.Int(10) {
		t.Fatalf("balance after the refused deposit = %v, want 10", audit.Results[0])
	}
}

// TestServiceUnknownObject: with auto-creation disabled, touching an
// unknown object is the client's error (404, code "no-object"), and
// explicit object creation fixes it.
func TestServiceUnknownObject(t *testing.T) {
	_, c, _ := startServer(t, service.Options{})
	ctx := context.Background()
	_, err := c.Run(ctx, []service.OpRequest{deposit("x", 1)})
	var se *client.Error
	if !errors.As(err, &se) || se.Status != 404 || se.Code != service.CodeNoObject {
		t.Fatalf("unknown object error = %v", err)
	}
	if weihl83.Retryable(err) {
		t.Fatalf("unknown object must not be retryable: %v", err)
	}
	if err := c.CreateObject(ctx, "x", "account", "escrow"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, []service.OpRequest{deposit("x", 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceTenantProvisioning: explicit provisioning is idempotent for an
// identical config and a conflict (409) for a different one — a tenant's
// System holds live state, so options cannot silently change under it.
func TestServiceTenantProvisioning(t *testing.T) {
	_, c, _ := startServer(t, service.Options{})
	ctx := context.Background()
	cfg := service.TenantConfig{Property: "static", Guard: "rw", AutoCreate: "account"}
	if err := c.EnsureTenant(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureTenant(ctx, cfg); err != nil {
		t.Fatalf("idempotent re-provision: %v", err)
	}
	cfg.Guard = "escrow"
	err := c.EnsureTenant(ctx, cfg)
	var se *client.Error
	if !errors.As(err, &se) || se.Status != 409 {
		t.Fatalf("conflicting re-provision = %v", err)
	}
	if err := c.EnsureTenant(ctx, service.TenantConfig{Property: "nope"}); err == nil {
		t.Fatal("unknown property accepted")
	}
}

// TestServiceMetricsTenantFilter: /v1/metrics?tenant= must cut the
// process-wide registry down to that tenant's instruments only.
func TestServiceMetricsTenantFilter(t *testing.T) {
	srv, _, mk := startServer(t, service.Options{
		DefaultTenant: service.TenantOptions{AutoCreate: "account"},
	})
	ctx := context.Background()
	for _, tenant := range []string{"m1", "m2"} {
		if _, err := mk(tenant).Run(ctx, []service.OpRequest{deposit("a", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := mk("m1").Metrics(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("svc.tenant.m1.committed"); got < 1 {
		t.Errorf("svc.tenant.m1.committed = %d", got)
	}
	for name := range snap.Counters {
		if !strings.HasPrefix(name, "svc.tenant.m1.") {
			t.Errorf("filtered snapshot leaked counter %q", name)
		}
	}
	for name := range snap.Histograms {
		if !strings.HasPrefix(name, "svc.tenant.m1.") {
			t.Errorf("filtered snapshot leaked histogram %q", name)
		}
	}
	if lat, ok := snap.Histograms["svc.tenant.m1.latency_ns"]; !ok || lat.Count < 1 {
		t.Errorf("tenant latency histogram missing or empty: %+v", lat)
	}
	// Unfiltered snapshot still carries the service-wide metrics.
	full, err := mk("m1").Metrics(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if full.Counter("svc.tx.committed") < 2 {
		t.Errorf("svc.tx.committed = %d", full.Counter("svc.tx.committed"))
	}
	// A tenant name is a query value, escaped: "a&b" must not be read as
	// tenant "a" plus a stray parameter.
	for _, tenant := range []string{"a", "a&b"} {
		if _, err := mk(tenant).Run(ctx, []service.OpRequest{deposit("x", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	amp, err := mk("a&b").Metrics(ctx, "a&b")
	if err != nil {
		t.Fatal(err)
	}
	if got := amp.Counter("svc.tenant.a&b.committed"); got < 1 {
		t.Errorf("svc.tenant.a&b.committed = %d", got)
	}
	for name := range amp.Counters {
		if !strings.HasPrefix(name, "svc.tenant.a&b.") {
			t.Errorf("snapshot for tenant a&b holds %q", name)
		}
	}
	// A status other than 200 is an error, not an empty snapshot.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, err = client.New(ts.URL+"/missing", client.Options{Tenant: "m1"}).Metrics(ctx, "")
	var se *client.Error
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Errorf("metrics from a 404 path = %v, want a *client.Error with status 404", err)
	}
}

// TestServiceRefusesTrailingBytes: a request body must hold exactly one
// JSON document, whitespace aside. Two concatenated transactions, or a
// provisioning document followed by garbage, are a 400 bad-request, and
// nothing of them takes effect.
func TestServiceRefusesTrailingBytes(t *testing.T) {
	srv := service.New(service.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.Options{Tenant: "t", MaxRetries: 2})
	ctx := context.Background()
	for _, object := range []string{"a", "b"} {
		if err := c.CreateObject(ctx, object, "account", ""); err != nil {
			t.Fatal(err)
		}
	}
	tx := func(object string) string {
		raw, err := json.Marshal(service.TxRequest{Tenant: "t", Ops: []service.OpRequest{deposit(object, 5)}})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"two transactions", "/v1/tx", tx("a") + tx("a"), http.StatusBadRequest},
		{"transaction and garbage", "/v1/tx", tx("a") + "x", http.StatusBadRequest},
		{"tenant and garbage", "/v1/tenants", `{"tenant":"u","property":"static"} {`, http.StatusBadRequest},
		{"object and garbage", "/v1/objects", `{"tenant":"t","object":"c","type":"account"}]`, http.StatusBadRequest},
		{"transaction and whitespace", "/v1/tx", tx("b") + " \n\t", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var body struct{ Code string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding the answer: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status || (tc.status != http.StatusOK && body.Code != service.CodeBadReq) {
			t.Errorf("%s: status %d code %q, want %d", tc.name, resp.StatusCode, body.Code, tc.status)
		}
	}
	audit, err := c.RunReadOnly(ctx, []service.OpRequest{balance("a"), balance("b")})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Results[0] != value.Int(0) || audit.Results[1] != value.Int(5) {
		t.Errorf("balances a, b = %v, want 0 (refused) and 5", audit.Results)
	}
	if srv.TenantSystem("u") != nil {
		t.Error("tenant u was provisioned from a body with trailing garbage")
	}
	var se *client.Error
	if _, err := c.Run(ctx, []service.OpRequest{deposit("c", 1)}); !errors.As(err, &se) || se.Code != service.CodeNoObject {
		t.Errorf("deposit into c = %v, want no-object: c was created from a body with trailing garbage", err)
	}
}

// TestServiceRetryableAcrossWire: a transaction the server aborts retryably
// (server-side budget exhausted against a held lock) must come back as a
// retryable error — cc.ErrUnavailable semantics survive the wire, so the
// client's own Pacer can take over.
func TestServiceRetryableAcrossWire(t *testing.T) {
	srv, c, _ := startServer(t, service.Options{
		DefaultTenant: service.TenantOptions{
			AutoCreate:  "account",
			Guard:       weihl83.GuardRW,
			WaitTimeout: time.Millisecond, // bounded waits instead of deadlock detection
			MaxRetries:  2,                // exhaust the server-side budget quickly
		},
	})
	ctx := context.Background()
	if _, err := c.Run(ctx, []service.OpRequest{deposit("a", 1)}); err != nil {
		t.Fatal(err)
	}
	sys := srv.TenantSystem("t")
	hold := sys.Begin()
	if _, err := hold.Invoke("a", weihl83.OpDeposit, weihl83.Int(1)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Do(ctx, false, []service.OpRequest{deposit("a", 1)})
	if err == nil {
		t.Fatal("conflicting transaction committed under a held write lock")
	}
	if !weihl83.Retryable(err) {
		t.Fatalf("server-aborted conflict not retryable across the wire: %v", err)
	}
	hold.Abort()
	// With the lock gone the client-side retry chain succeeds.
	if _, err := c.Run(ctx, []service.OpRequest{deposit("a", 1)}); err != nil {
		t.Fatal(err)
	}
}
