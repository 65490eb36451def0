package service_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"weihl83"
	"weihl83/internal/client"
	"weihl83/internal/fault"
	"weihl83/internal/service"
	"weihl83/internal/value"
)

// TestServiceRestartConservation is the durability chaos test over real
// HTTP: a server with -data semantics takes a concurrent transfer storm
// under service faults (dropped requests, torn responses), drains, and a
// SECOND server on the same data directory must see every account — no
// client re-creates objects — with the money conserved. Torn responses
// make clients observe transport errors on transactions that committed,
// so the oracle also proves "client saw failure" never implies "effect
// lost" across the restart.
func TestServiceRestartConservation(t *testing.T) {
	const (
		accounts = 8
		seedBal  = 100
		workers  = 12
		txPerW   = 25
	)
	dir := t.TempDir()
	acct := func(i int) string { return "acct" + strconv.Itoa(i) }
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// --- First life: provision, seed, chaos transfer storm, drain. ---
	inj := fault.New(83)
	srv1 := service.New(service.Options{DataDir: dir, Injector: inj})
	ts1 := httptest.NewServer(srv1.Handler())
	c0 := client.New(ts1.URL, client.Options{Tenant: "bank", MaxRetries: 64})
	for i := 0; i < accounts; i++ {
		if err := c0.CreateObject(ctx, acct(i), "account", "escrow"); err != nil {
			t.Fatal(err)
		}
		if _, err := c0.Run(ctx, []service.OpRequest{{Object: acct(i), Op: "deposit", Arg: value.Int(seedBal)}}); err != nil {
			t.Fatal(err)
		}
	}
	inj.Enable(fault.SvcAcceptDrop, fault.Rule{Prob: 0.1})
	inj.Enable(fault.SvcResponseTorn, fault.Rule{Prob: 0.1})

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(ts1.URL, client.Options{Tenant: "bank", MaxRetries: 64})
			rng := rand.New(rand.NewSource(int64(w) + 83))
			for i := 0; i < txPerW; i++ {
				src, dst := rng.Intn(accounts), rng.Intn(accounts)
				_, err := c.Run(ctx, []service.OpRequest{
					{Object: acct(src), Op: "withdraw", Arg: value.Int(1)},
					{Object: acct(dst), Op: "deposit", Arg: value.Int(1)},
				})
				if err != nil && !weihl83.Retryable(err) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("worker failed non-retryably: %v", err)
	}

	// The group-commit fsync instruments must have moved: every commit on
	// the file backend rides a durable batch.
	snap := srv1.Drain()
	ts1.Close()
	if snap.Histograms["wal.fsync"].Count == 0 {
		t.Error("wal.fsync histogram never observed a batch on the file backend")
	}
	if snap.Counters["wal.fsync.batch_size"] == 0 {
		t.Error("wal.fsync.batch_size counter never incremented on the file backend")
	}
	// The durability stage's overlap instruments are in every snapshot;
	// whether a run overlaps its fsyncs depends on the schedule, but never
	// more syncs overlap than ran.
	for _, name := range []string{"wal.fsync.overlapped", "wal.fsync.covered"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot lacks the %s counter", name)
		}
	}
	if o, n := snap.Counters["wal.fsync.overlapped"], snap.Counters["wal.fsync.count"]; o > n {
		t.Errorf("wal.fsync.overlapped = %d exceeds wal.fsync.count = %d", o, n)
	}

	// --- Second life: same directory, fresh server, no provisioning. ---
	srv2 := service.New(service.Options{DataDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Drain()
	audit := client.New(ts2.URL, client.Options{Tenant: "bank", MaxRetries: 8})
	ops := make([]service.OpRequest, accounts)
	for i := range ops {
		ops[i] = service.OpRequest{Object: acct(i), Op: "balance", Arg: value.Nil()}
	}
	resp, err := audit.RunReadOnly(ctx, ops)
	if err != nil {
		t.Fatalf("reading recovered balances (objects should come from the catalog): %v", err)
	}
	var total int64
	for i, v := range resp.Results {
		iv, ok := v.AsInt()
		if !ok {
			t.Fatalf("balance of %s: %v", acct(i), v)
		}
		total += iv
	}
	if total != accounts*seedBal {
		t.Fatalf("conservation violated across restart: total %d, want %d", total, accounts*seedBal)
	}
}

// TestServiceDurableTenantValidation pins the durable-mode edges: tenant
// names that would smuggle path structure are refused, and non-dynamic
// tenants cannot be durable.
func TestServiceDurableTenantValidation(t *testing.T) {
	srv := service.New(service.Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	ctx := context.Background()

	bad := client.New(ts.URL, client.Options{Tenant: "../escape", MaxRetries: 1})
	if err := bad.EnsureTenant(ctx, service.TenantConfig{}); err == nil {
		t.Error("tenant name with path structure was accepted in durable mode")
	}
	static := client.New(ts.URL, client.Options{Tenant: "st", MaxRetries: 1})
	if err := static.EnsureTenant(ctx, service.TenantConfig{Property: "static"}); err == nil {
		t.Error("static tenant was accepted in durable mode")
	}
}

// TestServiceTenantRestartedTwice runs three server lives on one DataDir,
// five commits each (a deposit plus an increment of the `total` counter).
// A recovered tenant numbers its transactions past every identifier its
// log holds, so the third life must see all ten earlier commits — reused
// identifiers would make replay drop the second life's as already applied.
func TestServiceTenantRestartedTwice(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for life := int64(1); life <= 3; life++ {
		srv := service.New(service.Options{DataDir: dir})
		ts := httptest.NewServer(srv.Handler())
		c := client.New(ts.URL, client.Options{Tenant: "bank", MaxRetries: 8})
		if life == 1 {
			if err := c.CreateObject(ctx, "acct", "account", "escrow"); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateObject(ctx, "total", "counter", ""); err != nil {
				t.Fatal(err)
			}
		}
		check := func(when string, lives int64) {
			t.Helper()
			resp, err := c.RunReadOnly(ctx, []service.OpRequest{
				{Object: "acct", Op: "balance", Arg: value.Nil()},
				{Object: "total", Op: "read", Arg: value.Nil()},
			})
			if err != nil {
				t.Fatalf("life %d %s: %v", life, when, err)
			}
			b, _ := resp.Results[0].AsInt()
			n, _ := resp.Results[1].AsInt()
			if b != 50*lives || n != 5*lives {
				t.Fatalf("life %d %s: balance %d, total %d; want %d, %d", life, when, b, n, 50*lives, 5*lives)
			}
		}
		check("recovered", life-1)
		for i := 0; i < 5; i++ {
			if _, err := c.Run(ctx, []service.OpRequest{
				{Object: "acct", Op: "deposit", Arg: value.Int(10)},
				{Object: "total", Op: "increment", Arg: value.Nil()},
			}); err != nil {
				t.Fatalf("life %d: %v", life, err)
			}
		}
		check("live", life)
		srv.Drain()
		ts.Close()
	}
}
