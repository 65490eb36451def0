package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// testCluster is two sites, each hosting one escrow account, a crashable
// coordinator, and a transaction manager over remote proxies.
type testCluster struct {
	net      *Network
	coord    *Coordinator
	siteA    *Site
	siteB    *Site
	remA     *RemoteResource
	remB     *RemoteResource
	manager  *tx.Manager
	recorder *recorder
}

type recorder struct {
	mu sync.Mutex
	h  histories.History
}

func (r *recorder) sink() cc.EventSink {
	return func(e histories.Event) {
		r.mu.Lock()
		r.h = append(r.h, e)
		r.mu.Unlock()
	}
}

func (r *recorder) history() histories.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h.Clone()
}

func escrowGuard(adts.Type) locking.Guard { return locking.EscrowGuard{} }

func newCluster(t *testing.T, maxDelay time.Duration) *testCluster {
	t.Helper()
	return newClusterInj(t, maxDelay, nil)
}

func newClusterInj(t *testing.T, maxDelay time.Duration, inj *fault.Injector) *testCluster {
	t.Helper()
	c := &testCluster{
		net:      NewNetwork(0, maxDelay, 7),
		recorder: &recorder{},
	}
	c.net.SetInjector(inj)
	var err error
	c.coord, err = NewCoordinator(CoordinatorConfig{ID: "C", Network: c.net, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	c.siteA, err = NewSite(SiteConfig{ID: "A", Network: c.net, Coordinators: []SiteID{"C"}, Sink: c.recorder.sink(), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	c.siteB, err = NewSite(SiteConfig{ID: "B", Network: c.net, Coordinators: []SiteID{"C"}, Sink: c.recorder.sink(), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.siteA.AddObject("acct0", adts.Account(), escrowGuard); err != nil {
		t.Fatal(err)
	}
	if err := c.siteB.AddObject("acct1", adts.Account(), escrowGuard); err != nil {
		t.Fatal(err)
	}
	c.manager, err = tx.NewManager(tx.Config{
		Property:    tx.Dynamic,
		Coordinator: c.coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.remA = NewRemoteResource(c.net, "A", "acct0")
	c.remB = NewRemoteResource(c.net, "B", "acct1")
	for _, r := range []cc.Resource{c.remA, c.remB} {
		if err := c.manager.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *testCluster) balance(t *testing.T, obj histories.ObjectID) int64 {
	t.Helper()
	var out int64
	if err := c.manager.Run(func(txn *tx.Txn) error {
		v, err := txn.Invoke(obj, adts.OpBalance, value.Nil())
		if err != nil {
			return err
		}
		out = v.MustInt()
		return nil
	}); err != nil {
		t.Fatalf("balance %s: %v", obj, err)
	}
	return out
}

func TestDistributedTransferAcrossSites(t *testing.T) {
	c := newCluster(t, 200*time.Microsecond)
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(100))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Concurrent cross-site transfers.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.manager.Run(func(txn *tx.Txn) error {
				v, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(5))
				if err != nil {
					return err
				}
				if v != value.Unit() {
					return nil
				}
				_, err = txn.Invoke("acct1", adts.OpDeposit, value.Int(5))
				return err
			}); err != nil {
				t.Errorf("transfer: %v", err)
			}
		}()
	}
	wg.Wait()
	b0 := c.balance(t, "acct0")
	b1 := c.balance(t, "acct1")
	if b0+b1 != 100 || b1 != 30 {
		t.Errorf("balances %d/%d, want 70/30", b0, b1)
	}
	// The globally recorded history (events recorded at the real objects
	// at each site) is dynamic atomic.
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	if err := ck.DynamicAtomic(c.recorder.history()); err != nil {
		t.Errorf("distributed history not dynamic atomic: %v", err)
	}
}

// TestCrashBeforePrepareAborts: a participant crash before prepare makes
// the transaction abort; the surviving site keeps nothing of it.
func TestCrashBeforePrepareAborts(t *testing.T) {
	c := newCluster(t, 0)
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(50))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	c.siteB.Crash()
	err := txn.Commit()
	if err == nil {
		t.Fatal("commit succeeded although a participant was down at prepare")
	}
	if !errors.Is(err, ErrSiteDown) {
		t.Fatalf("commit error = %v", err)
	}
	if err := c.siteB.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := c.balance(t, "acct0"); got != 50 {
		t.Errorf("acct0 = %d, want 50 (transfer aborted)", got)
	}
	if got := c.balance(t, "acct1"); got != 0 {
		t.Errorf("acct1 = %d, want 0 (presumed abort)", got)
	}
}

// TestCrashAfterPrepareCommitRecovered: the participant crashes after
// voting yes but before receiving the commit; on recovery it consults the
// coordinator's decision log and REDOES the commit from its own logged
// intentions — the transaction's effects survive the crash.
func TestCrashAfterPrepareCommitRecovered(t *testing.T) {
	c := newCluster(t, 0)
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(50))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	// Prepare both participants by hand, then make the decision durable at
	// the coordinator — its commit point — then crash B before it can hear
	// the commit.
	c.coord.Begin(txn.ID())
	for _, r := range []cc.Resource{c.remA, c.remB} {
		info := &cc.TxnInfo{ID: txn.ID(), Seq: 0, Participants: []string{"A", "B"}}
		if err := r.Prepare(info); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.coord.Decide(txn.ID(), true); err != nil {
		t.Fatal(err)
	}
	c.siteB.Crash()
	// Deliver the commit: A applies it, B misses it.
	for _, r := range []cc.Resource{c.remA, c.remB} {
		r.Commit(&cc.TxnInfo{ID: txn.ID(), Seq: 0}, histories.TSNone)
	}
	if err := c.siteB.Recover(); err != nil {
		t.Fatal(err)
	}
	key, err := c.siteB.CommittedStateKey("acct1")
	if err != nil {
		t.Fatal(err)
	}
	if key != "10" {
		t.Errorf("acct1 after recovery = %s, want 10 (redo from log + decision)", key)
	}
	keyA, err := c.siteA.CommittedStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	if keyA != "40" {
		t.Errorf("acct0 = %s, want 40", keyA)
	}
}

// TestCrashAfterPrepareUndecidedAborts: prepared but no decision recorded —
// presumed abort on recovery.
func TestCrashAfterPrepareUndecidedAborts(t *testing.T) {
	c := newCluster(t, 0)
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if err := c.remB.Prepare(&cc.TxnInfo{ID: txn.ID(), Seq: 0}); err != nil {
		t.Fatal(err)
	}
	c.siteB.Crash()
	if err := c.siteB.Recover(); err != nil {
		t.Fatal(err)
	}
	key, err := c.siteB.CommittedStateKey("acct1")
	if err != nil {
		t.Fatal(err)
	}
	if key != "0" {
		t.Errorf("acct1 after recovery = %s, want 0 (presumed abort)", key)
	}
}

// TestInvokeOnDownSiteIsRetryable: transactions touching a crashed site
// fail with a retryable error and succeed after recovery.
func TestInvokeOnDownSiteIsRetryable(t *testing.T) {
	c := newCluster(t, 0)
	c.siteA.Crash()
	txn := c.manager.Begin()
	_, err := txn.Invoke("acct0", adts.OpBalance, value.Nil())
	if err == nil {
		t.Fatal("invoke on a down site succeeded")
	}
	if !cc.Retryable(err) {
		t.Fatalf("error %v not retryable", err)
	}
	txn.Abort()
	if err := c.siteA.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := c.balance(t, "acct0"); got != 0 {
		t.Errorf("balance %d", got)
	}
}

// TestSiteValidation covers construction errors and double recovery.
func TestSiteValidation(t *testing.T) {
	net := NewNetwork(0, 0, 1)
	if _, err := NewSite(SiteConfig{}); err == nil {
		t.Error("empty SiteConfig accepted")
	}
	if _, err := NewSite(SiteConfig{ID: "A", Network: net}); err == nil {
		t.Error("SiteConfig without a coordinator accepted")
	}
	s, err := NewSite(SiteConfig{ID: "A", Network: net, Coordinators: []SiteID{"C"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSite(SiteConfig{ID: "A", Network: net, Coordinators: []SiteID{"C"}}); err == nil {
		t.Error("duplicate site accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Error("empty CoordinatorConfig accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{ID: "A", Network: net}); err == nil {
		t.Error("coordinator named after an existing site accepted")
	}
	if err := s.AddObject("x", adts.IntSet(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("x", adts.IntSet(), nil); err == nil {
		t.Error("duplicate object accepted")
	}
	if err := s.Recover(); err == nil {
		t.Error("recovering an up site succeeded")
	}
	if _, err := net.Site("zz"); err == nil {
		t.Error("unknown site lookup succeeded")
	}
	s.Crash()
	if err := s.AddObject("y", adts.IntSet(), nil); !errors.Is(err, ErrSiteDown) {
		t.Errorf("AddObject on down site = %v", err)
	}
	if _, err := s.CommittedStateKey("x"); !errors.Is(err, ErrSiteDown) {
		t.Errorf("state key on down site = %v", err)
	}
}

// TestRecoveryPreservesCommittedAcrossManyTransactions: several committed
// transactions, a crash, and recovery must reproduce the exact state.
func TestRecoveryPreservesCommittedAcrossManyTransactions(t *testing.T) {
	c := newCluster(t, 0)
	for i := 0; i < 5; i++ {
		if err := c.manager.Run(func(txn *tx.Txn) error {
			if _, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(10)); err != nil {
				return err
			}
			_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.siteA.Crash()
	c.siteB.Crash()
	if err := c.siteA.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := c.siteB.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := c.balance(t, "acct0"); got != 50 {
		t.Errorf("acct0 = %d, want 50", got)
	}
	if got := c.balance(t, "acct1"); got != 5 {
		t.Errorf("acct1 = %d, want 5", got)
	}
}
