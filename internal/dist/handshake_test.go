package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// firstContactWindow drives the exact schedule behind the historical seed-2
// chaos flake (old ROADMAP open item 1): a transaction's FIRST operation at
// a site executes, the reply is lost, the site crashes and recovers (reply
// cache wiped, epoch bumped), and the client retransmits. It returns the
// invoke error and the number of history events the site recorded for the
// operation. Under the handshake protocol the retransmission carries the
// pre-crash epoch and is refused (ErrOrphaned, one event); under the old
// pin-on-first-reply protocol (handshake false: the operation goes out
// through call with expect=0) it slips past the epoch and sequence checks
// and re-executes (nil error, two events — the phantom duplicate that
// broke serializability while money stayed conserved).
func firstContactWindow(t *testing.T, handshake bool) (error, int) {
	t.Helper()
	inj := fault.New(1)
	c := newClusterInj(t, 0, inj)
	c.net.SetRPC(150*time.Millisecond, 2)

	txn := &cc.TxnInfo{ID: "T-first-contact", Seq: 1}
	inv := spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(5)}
	r := c.remA
	send := func() error {
		_, err := r.Invoke(txn, inv)
		return err
	}
	if handshake {
		// The handshake pins the epoch before the operation; crucially the
		// pin must survive being taken before the op, not from its reply.
		if _, err := r.ensureEpoch(txn.ID); err != nil {
			t.Fatal(err)
		}
	} else {
		send = func() error {
			_, err := call(r.net, r.origin, r.site, 0, txn.ID, inv, func(s *Site, inv spec.Invocation) (value.Value, error) {
				return s.handleInvoke(r.obj, txn, inv, 0, r.rv)
			})
			return err
		}
	}
	// Drop exactly one reply: the first delivery of the first operation.
	inj.Enable(fault.NetReplyDrop, fault.Rule{Prob: 1, Limit: 1})

	crashed := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // inside the retransmission wait
		c.siteA.Crash()
		crashed <- c.siteA.Recover()
	}()
	err := send()
	if rerr := <-crashed; rerr != nil {
		t.Fatal(rerr)
	}
	events := 0
	for _, e := range c.recorder.history() {
		if e.Activity == txn.ID && e.Kind == histories.KindInvoke {
			events++
		}
	}
	return err, events
}

// TestHandshakeClosesFirstContactWindow: with the epoch handshake, the
// retransmitted first operation is refused as orphaned — no re-execution,
// no phantom history event — and the abort is retryable.
func TestHandshakeClosesFirstContactWindow(t *testing.T) {
	err, events := firstContactWindow(t, true)
	if !errors.Is(err, ErrOrphaned) {
		t.Fatalf("retransmitted first op across a crash = %v, want ErrOrphaned", err)
	}
	if !cc.Retryable(err) {
		t.Fatalf("orphaned first contact %v is not retryable", err)
	}
	if events != 1 {
		t.Errorf("recorded %d events for the operation, want exactly 1 (no phantom re-execution)", events)
	}
}

// TestHandshakeRegressionLock deliberately re-introduces the expect=0
// first-contact path (the pre-handshake protocol, by sending the first
// operation through call with expect=0) and shows the protections the
// other handshake tests assert really do collapse without it: the
// retransmission re-executes the operation, records a phantom duplicate
// event, and the expect=0 counter — which TestHandshakeNoExpectZeroUnderFaults
// pins at zero — goes positive. If a regression ever reopens the window,
// those tests fail exactly the way this one demonstrates.
func TestHandshakeRegressionLock(t *testing.T) {
	before := obs.Default.Counter("dist.rpc.expect0").Load()
	err, events := firstContactWindow(t, false)
	if err != nil {
		t.Fatalf("expect=0 retransmission was refused (%v); the re-introduced hole should slip through", err)
	}
	if events != 2 {
		t.Errorf("recorded %d events, want 2 (the phantom duplicate the old protocol produced)", events)
	}
	if got := obs.Default.Counter("dist.rpc.expect0").Load() - before; got == 0 {
		t.Error("expect=0 messages were sent but the dist.rpc.expect0 counter did not move")
	}
}

// TestHandshakeNoExpectZeroUnderFaults: under a faulty workload with
// drops, duplications and lost replies, no message ever carries expect=0 —
// the handshake pins an epoch before every transaction's first contact.
// This is the standing regression lock for old ROADMAP open item 1.
func TestHandshakeNoExpectZeroUnderFaults(t *testing.T) {
	inj := fault.New(3)
	inj.Enable(fault.NetRequestDrop, fault.Rule{Prob: 0.1})
	inj.Enable(fault.NetRequestDup, fault.Rule{Prob: 0.2})
	inj.Enable(fault.NetReplyDrop, fault.Rule{Prob: 0.1})
	c := newClusterInj(t, 50*time.Microsecond, inj)

	before := obs.Default.Counter("dist.rpc.expect0").Load()
	for i := 0; i < 10; i++ {
		if err := c.manager.Run(func(txn *tx.Txn) error {
			if _, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1)); err != nil {
				return err
			}
			_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
			return err
		}); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if got := obs.Default.Counter("dist.rpc.expect0").Load() - before; got != 0 {
		t.Errorf("%d messages carried expect=0; the handshake must pin an epoch before first contact", got)
	}
}

// transferOnce runs one two-site transfer of amt from acct0 to acct1 and
// returns how many times the runtime ran its body (1: no retry).
func (c *testCluster) transferOnce(t *testing.T, amt int64) int {
	t.Helper()
	runs := 0
	if err := c.manager.Run(func(txn *tx.Txn) error {
		runs++
		if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(amt)); err != nil {
			return err
		}
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(amt))
		return err
	}); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	return runs
}

// TestEpochHandshakeOncePerCrash: the network's epoch table handshakes a
// site once per crash, not once per transaction. A warm two-site transfer
// sends six messages — an invoke, a prepare and a commit at each site —
// and no Hello. After a crash the table's epoch for the site is stale: the
// next transfer's first message there is refused as orphaned on its first
// transmission, which proves nothing of the transaction executed, so the
// proxy handshakes once and resends, and the transfer commits without a
// retry and without an expect=0 message.
func TestEpochHandshakeOncePerCrash(t *testing.T) {
	c := newCluster(t, 0)
	calls := obs.Default.Counter("dist.rpc.calls")
	hellos := obs.Default.Counter("dist.rpc.hellos")
	expect0 := obs.Default.Counter("dist.rpc.expect0")
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(100))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c.transferOnce(t, 1) // warm-up: learns both sites' epochs
	const n = 10
	measure := func(transfers int) (rpcs, hs int64, retried bool) {
		c0, h0 := calls.Load(), hellos.Load()
		for i := 0; i < transfers; i++ {
			if c.transferOnce(t, 1) != 1 {
				retried = true
			}
		}
		return calls.Load() - c0, hellos.Load() - h0, retried
	}
	e0 := expect0.Load()
	if rpcs, hs, retried := measure(n); rpcs != 6*n || hs != 0 || retried {
		t.Errorf("%d warm transfers: %d messages, %d Hellos, retried=%v; want %d, 0, false", n, rpcs, hs, retried, 6*n)
	}

	c.siteA.Crash()
	if err := c.siteA.Recover(); err != nil {
		t.Fatal(err)
	}
	// The stale invoke, one Hello, its resend, then the other five.
	if rpcs, hs, retried := measure(1); rpcs != 8 || hs != 1 || retried {
		t.Errorf("first transfer after a crash: %d messages, %d Hellos, retried=%v; want 8, 1, false", rpcs, hs, retried)
	}
	if rpcs, hs, retried := measure(n); rpcs != 6*n || hs != 0 || retried {
		t.Errorf("%d transfers after the re-handshake: %d messages, %d Hellos, retried=%v; want %d, 0, false", n, rpcs, hs, retried, 6*n)
	}
	if got := expect0.Load() - e0; got != 0 {
		t.Errorf("%d messages carried expect=0", got)
	}
	if b0, b1 := c.balance(t, "acct0"), c.balance(t, "acct1"); b0+b1 != 100 || b1 != 2*n+2 {
		t.Errorf("balances %d/%d, want %d/%d", b0, b1, 100-(2*n+2), 2*n+2)
	}
}

// TestReconfigureUnderTransfers races the network's configuration setters
// — Partition, Heal, SetInjector, SetRPC — and two crash-and-recover
// cycles of one site against two goroutines of two-site transfers: the
// message path reads a published snapshot and the epoch table without the
// network's mutex, and the race detector checks that it is safe to. The
// partitions never cut the transfers' path (their messages originate
// outside the network), and the injector only duplicates and delays
// messages, so every transfer must commit and money must be conserved.
func TestReconfigureUnderTransfers(t *testing.T) {
	c := newCluster(t, 0)
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(100000))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(5)
	inj.Enable(fault.NetRequestDup, fault.Rule{Prob: 0.5})
	inj.Enable(fault.NetDelay, fault.Rule{Prob: 0.2, Delay: 20 * time.Microsecond})
	done := make(chan struct{})
	var transfers [2]int
	var workers sync.WaitGroup
	for w := range transfers {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := c.manager.Run(func(txn *tx.Txn) error {
					if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(1)); err != nil {
						return err
					}
					_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
					return err
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				transfers[w]++
			}
		}()
	}
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			c.net.Partition([]SiteID{"A"}, []SiteID{"B", "C"})
		case 1:
			c.net.Heal()
		case 2:
			if i%8 == 2 {
				c.net.SetInjector(inj)
			} else {
				c.net.SetInjector(nil)
			}
		case 3:
			c.net.SetRPC(time.Duration(1+i%3)*time.Millisecond, 2+i%2)
		}
		if i == 50 || i == 150 {
			c.siteA.Crash()
			for c.siteA.Recover() != nil {
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(done)
	workers.Wait()
	c.net.Heal()
	c.net.SetInjector(nil)
	moved := int64(transfers[0] + transfers[1])
	if b0, b1 := c.balance(t, "acct0"), c.balance(t, "acct1"); b0+b1 != 100000 || b1 != moved {
		t.Errorf("balances %d/%d after %d transfers, want %d/%d", b0, b1, moved, 100000-moved, moved)
	}
}
