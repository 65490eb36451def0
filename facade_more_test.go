package weihl83_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"weihl83"
)

// TestFacadeGuardSpectrum exercises every guard through the facade on the
// §5.1 workload shape.
func TestFacadeGuardSpectrum(t *testing.T) {
	for _, g := range []weihl83.Guard{weihl83.GuardRW, weihl83.GuardNameOnly, weihl83.GuardCommut, weihl83.GuardEscrow, weihl83.GuardExact, weihl83.GuardCascade} {
		g := g
		t.Run(guardName(g), func(t *testing.T) {
			t.Parallel()
			sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AddObject("acct", weihl83.Account(), weihl83.WithGuard(g)); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(func(txn *weihl83.Txn) error {
				_, err := txn.Invoke("acct", weihl83.OpDeposit, weihl83.Int(100))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := sys.Run(func(txn *weihl83.Txn) error {
						_, err := txn.Invoke("acct", weihl83.OpWithdraw, weihl83.Int(5))
						return err
					}); err != nil {
						t.Errorf("withdraw: %v", err)
					}
				}()
			}
			wg.Wait()
			var bal weihl83.Value
			if err := sys.Run(func(txn *weihl83.Txn) error {
				v, err := txn.Invoke("acct", weihl83.OpBalance, weihl83.Nil())
				bal = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if bal != weihl83.Int(85) {
				t.Errorf("balance %v, want 85", bal)
			}
			if err := sys.Checker().DynamicAtomic(sys.History()); err != nil {
				t.Errorf("not dynamic atomic: %v", err)
			}
		})
	}
}

func guardName(g weihl83.Guard) string {
	switch g {
	case weihl83.GuardRW:
		return "rw"
	case weihl83.GuardNameOnly:
		return "nameonly"
	case weihl83.GuardCommut:
		return "commut"
	case weihl83.GuardEscrow:
		return "escrow"
	case weihl83.GuardExact:
		return "exact"
	case weihl83.GuardCascade:
		return "cascade"
	default:
		return "unknown"
	}
}

// TestFacadeTimeoutMode builds a dynamic system with timeouts instead of
// deadlock detection.
func TestFacadeTimeoutMode(t *testing.T) {
	sys, err := weihl83.NewSystem(weihl83.Options{
		Property:    weihl83.Dynamic,
		WaitTimeout: 5 * time.Millisecond,
		Record:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("s", weihl83.IntSet()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sys.Run(func(txn *weihl83.Txn) error {
				if _, err := txn.Invoke("s", weihl83.OpInsert, weihl83.Int(int64(i))); err != nil {
					return err
				}
				_, err := txn.Invoke("s", weihl83.OpMember, weihl83.Int(int64(3-i)))
				return err
			}); err != nil {
				t.Errorf("txn %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := sys.Checker().DynamicAtomic(sys.History()); err != nil {
		t.Errorf("not dynamic atomic: %v", err)
	}
}

// TestFacadeSemiQueue drives the nondeterministic type through the public
// API.
func TestFacadeSemiQueue(t *testing.T) {
	sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("sq", weihl83.SemiQueue(), weihl83.WithGuard(weihl83.GuardExact)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(func(txn *weihl83.Txn) error {
		for _, v := range []int64{1, 2, 3} {
			if _, err := txn.Invoke("sq", weihl83.OpEnqueue, weihl83.Int(v)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for i := 0; i < 3; i++ {
		if err := sys.Run(func(txn *weihl83.Txn) error {
			v, err := txn.Invoke("sq", weihl83.OpDequeue, weihl83.Nil())
			if err != nil {
				return err
			}
			got[v.MustInt()] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 {
		t.Errorf("dequeued %v, want all of 1..3", got)
	}
	if err := sys.Checker().DynamicAtomic(sys.History()); err != nil {
		t.Errorf("not dynamic atomic: %v", err)
	}
}

// TestFacadeAllADTs registers every built-in type under each property.
func TestFacadeAllADTs(t *testing.T) {
	adtList := map[weihl83.ObjectID]weihl83.ADT{
		"set":   weihl83.IntSet(),
		"ctr":   weihl83.Counter(),
		"acct":  weihl83.Account(),
		"q":     weihl83.Queue(),
		"sq":    weihl83.SemiQueue(),
		"reg":   weihl83.Register(),
		"dir":   weihl83.Directory(),
		"seats": weihl83.SeatMap(4),
	}
	for _, prop := range []weihl83.Property{weihl83.Dynamic, weihl83.Static, weihl83.Hybrid} {
		sys, err := weihl83.NewSystem(weihl83.Options{Property: prop})
		if err != nil {
			t.Fatal(err)
		}
		for id, a := range adtList {
			if err := sys.AddObject(id, a); err != nil {
				t.Fatalf("%s/%s: %v", prop, id, err)
			}
		}
		if err := sys.Run(func(txn *weihl83.Txn) error {
			ops := []struct {
				obj weihl83.ObjectID
				op  string
				arg weihl83.Value
			}{
				{"set", weihl83.OpInsert, weihl83.Int(1)},
				{"ctr", weihl83.OpIncrement, weihl83.Nil()},
				{"acct", weihl83.OpDeposit, weihl83.Int(5)},
				{"q", weihl83.OpEnqueue, weihl83.Int(9)},
				{"sq", weihl83.OpEnqueue, weihl83.Int(9)},
				{"reg", weihl83.OpRegWrite, weihl83.Int(7)},
				{"dir", weihl83.OpBind, weihl83.Pair(1, 2)},
				{"seats", weihl83.OpReserve, weihl83.Int(0)},
			}
			for _, o := range ops {
				if _, err := txn.Invoke(o.obj, o.op, o.arg); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
	}
}

// TestFacadeDistinguishedResults sanity-checks the exported result values.
func TestFacadeDistinguishedResults(t *testing.T) {
	sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("acct", weihl83.Account()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("q", weihl83.Queue()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("dir", weihl83.Directory()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("seats", weihl83.SeatMap(1)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(func(txn *weihl83.Txn) error {
		if v, err := txn.Invoke("acct", weihl83.OpWithdraw, weihl83.Int(1)); err != nil || v != weihl83.InsufficientFunds {
			t.Errorf("withdraw from empty: %v %v", v, err)
		}
		if v, err := txn.Invoke("q", weihl83.OpDequeue, weihl83.Nil()); err != nil || v != weihl83.EmptyQueue {
			t.Errorf("dequeue empty: %v %v", v, err)
		}
		if v, err := txn.Invoke("dir", weihl83.OpLookup, weihl83.Int(1)); err != nil || v != weihl83.Unbound {
			t.Errorf("lookup unbound: %v %v", v, err)
		}
		if _, err := txn.Invoke("seats", weihl83.OpReserve, weihl83.Int(0)); err != nil {
			t.Errorf("reserve: %v", err)
		}
		if v, err := txn.Invoke("seats", weihl83.OpReserve, weihl83.Int(0)); err != nil || v != weihl83.Taken {
			t.Errorf("re-reserve: %v %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeThreeLivesOnOneFileWAL reopens one file WAL twice with no
// checkpoint in between. Every life commits five transactions, each a
// deposit(10) plus an increment of the `total` counter. A reopened system
// must number its transactions past every identifier the log already holds:
// reusing t1..t5 makes replay drop the new life's intentions as "already
// applied" (the account silently loses acknowledged deposits) and makes the
// counter's logged results unreplayable.
func TestFacadeThreeLivesOnOneFileWAL(t *testing.T) {
	dir := t.TempDir()
	types := map[weihl83.ObjectID]weihl83.ADT{"acct": weihl83.Account(), "total": weihl83.Counter()}
	read := func(sys *weihl83.System) (balance, total int64) {
		t.Helper()
		if err := sys.Run(func(txn *weihl83.Txn) error {
			b, err := txn.Invoke("acct", weihl83.OpBalance, weihl83.Nil())
			if err != nil {
				return err
			}
			c, err := txn.Invoke("total", weihl83.OpRead, weihl83.Nil())
			if err != nil {
				return err
			}
			balance, total = b.MustInt(), c.MustInt()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return balance, total
	}
	for life := int64(1); life <= 3; life++ {
		wal, err := weihl83.OpenFileWAL(dir, types)
		if err != nil {
			t.Fatalf("life %d: open: %v", life, err)
		}
		sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic, WAL: wal})
		if err := sys.RecoverObjects(types); err != nil {
			t.Fatalf("life %d: recover: %v", life, err)
		}
		if b, c := read(sys); b != 50*(life-1) || c != 5*(life-1) {
			t.Fatalf("life %d recovered balance %d, total %d; want %d, %d", life, b, c, 50*(life-1), 5*(life-1))
		}
		for i := 0; i < 5; i++ {
			if err := sys.Run(func(txn *weihl83.Txn) error {
				if _, err := txn.Invoke("acct", weihl83.OpDeposit, weihl83.Int(10)); err != nil {
					return err
				}
				_, err := txn.Invoke("total", weihl83.OpIncrement, weihl83.Nil())
				return err
			}); err != nil {
				t.Fatalf("life %d: %v", life, err)
			}
		}
		if b, c := read(sys); b != 50*life || c != 5*life {
			t.Fatalf("life %d live balance %d, total %d; want %d, %d", life, b, c, 50*life, 5*life)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadeDurableQueueRecoversInInstallOrder: concurrent enqueuers on a
// cascade-guarded queue over a file WAL. The guard grants their enqueues
// concurrently (each returns ok whatever the order), but the queue they
// leave depends on the order the commits installed in, so the log must hold
// the commits in that order: the reopened system's queue equals the live
// one, element for element.
func TestFacadeDurableQueueRecoversInInstallOrder(t *testing.T) {
	const enqueuers, each = 4, 5
	types := map[weihl83.ObjectID]weihl83.ADT{"q": weihl83.Queue()}
	contents := func(sys *weihl83.System) []int64 {
		t.Helper()
		txn := sys.Begin()
		defer txn.Abort() // a peek: the dequeues never commit
		var out []int64
		for i := 0; i < enqueuers*each; i++ {
			v, err := txn.Invoke("q", weihl83.OpDequeue, weihl83.Nil())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v.MustInt())
		}
		return out
	}
	for trial := 0; trial < 10; trial++ {
		dir := t.TempDir()
		wal, err := weihl83.OpenFileWAL(dir, types)
		if err != nil {
			t.Fatal(err)
		}
		sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic, WAL: wal})
		if err := sys.AddObject("q", weihl83.Queue(), weihl83.WithGuard(weihl83.GuardCascade)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := int64(0); w < enqueuers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < each; k++ {
					if err := sys.Run(func(txn *weihl83.Txn) error {
						_, err := txn.Invoke("q", weihl83.OpEnqueue, weihl83.Int(w))
						return err
					}); err != nil {
						t.Errorf("enqueue: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		live := contents(sys)
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}

		wal, err = weihl83.OpenFileWAL(dir, types)
		if err != nil {
			t.Fatal(err)
		}
		reopened := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic, WAL: wal})
		if err := reopened.RecoverObjects(types, weihl83.WithGuard(weihl83.GuardCascade)); err != nil {
			t.Fatal(err)
		}
		if recovered := contents(reopened); !slices.Equal(recovered, live) {
			t.Fatalf("trial %d: recovered queue %v, live %v", trial, recovered, live)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
