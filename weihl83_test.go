package weihl83_test

import (
	"errors"
	"sync"
	"testing"

	"weihl83"
)

func newDynamic(t *testing.T, opts weihl83.Options) *weihl83.System {
	t.Helper()
	sys, err := weihl83.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeQuickstartFlow(t *testing.T) {
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic, Record: true})
	if err := sys.AddObject("a", weihl83.Account(), weihl83.WithGuard(weihl83.GuardEscrow)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(func(txn *weihl83.Txn) error {
		_, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(10))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var bal weihl83.Value
	if err := sys.Run(func(txn *weihl83.Txn) error {
		v, err := txn.Invoke("a", weihl83.OpBalance, weihl83.Nil())
		bal = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if bal != weihl83.Int(10) {
		t.Errorf("balance %v", bal)
	}
	if err := sys.Checker().DynamicAtomic(sys.History()); err != nil {
		t.Errorf("not dynamic atomic: %v", err)
	}
	if err := sys.Err(); err != nil {
		t.Errorf("system corrupted: %v", err)
	}
	commits, _ := sys.Stats()
	if commits != 2 {
		t.Errorf("commits %d", commits)
	}
}

func TestFacadeEveryProperty(t *testing.T) {
	for _, prop := range []weihl83.Property{weihl83.Dynamic, weihl83.Static, weihl83.Hybrid} {
		prop := prop
		t.Run(prop.String(), func(t *testing.T) {
			sys := newDynamic(t, weihl83.Options{Property: prop, Record: true})
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
						_, err := txn.Invoke("s", weihl83.OpInsert, weihl83.Int(int64(i)))
						return err
					}); err != nil {
						t.Errorf("insert %d: %v", i, err)
					}
				}()
			}
			wg.Wait()
			var size weihl83.Value
			if err := sys.Run(func(txn *weihl83.Txn) error {
				v, err := txn.Invoke("s", weihl83.OpSize, weihl83.Nil())
				size = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if size != weihl83.Int(4) {
				t.Errorf("size %v, want 4", size)
			}
		})
	}
}

func TestFacadeHybridReadOnly(t *testing.T) {
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Hybrid, Record: true})
	if err := sys.AddObject("a", weihl83.Account(), weihl83.WithGuard(weihl83.GuardEscrow)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(func(txn *weihl83.Txn) error {
		_, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var bal weihl83.Value
	if err := sys.RunReadOnly(func(txn *weihl83.Txn) error {
		v, err := txn.Invoke("a", weihl83.OpBalance, weihl83.Nil())
		bal = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if bal != weihl83.Int(5) {
		t.Errorf("audit balance %v", bal)
	}
	h := sys.History()
	if err := h.WellFormedHybrid(); err != nil {
		t.Errorf("not hybrid well-formed: %v", err)
	}
	if err := sys.Checker().HybridAtomic(h); err != nil {
		t.Errorf("not hybrid atomic: %v", err)
	}
}

func TestFacadeWALRestart(t *testing.T) {
	disk := &weihl83.Disk{}
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic, WAL: disk})
	if err := sys.AddObject("a", weihl83.Account(), weihl83.WithGuard(weihl83.GuardEscrow)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(func(txn *weihl83.Txn) error {
		_, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(42))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction "in flight at the crash".
	hang := sys.Begin()
	if _, err := hang.Invoke("a", weihl83.OpDeposit, weihl83.Int(999)); err != nil {
		t.Fatal(err)
	}
	states, err := sys.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if states["a"] != "42" {
		t.Errorf("recovered state %q, want 42", states["a"])
	}
	hang.Abort()
}

func TestFacadeRestartWithoutWAL(t *testing.T) {
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic})
	if _, err := sys.Restart(); err == nil {
		t.Error("Restart without WAL succeeded")
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := weihl83.NewSystem(weihl83.Options{}); err == nil {
		t.Error("empty options accepted")
	}
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic})
	if err := sys.AddObject("a", weihl83.Account()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("a", weihl83.Account()); err == nil {
		t.Error("duplicate object accepted")
	}
	if err := sys.AddObject("b", weihl83.Account(), weihl83.WithGuard(weihl83.Guard(99))); err == nil {
		t.Error("unknown guard accepted")
	}
	// Undo-log on a type without an inverter.
	if err := sys.AddObject("q", weihl83.Queue(), weihl83.WithUndoLog()); err == nil {
		t.Error("undo log on queue accepted")
	}
	// Hybrid with timeouts is rejected.
	if _, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Hybrid, WaitTimeout: 1}); err == nil {
		// NewSystem itself succeeds; the AddObject must fail.
		sys2, err2 := weihl83.NewSystem(weihl83.Options{Property: weihl83.Hybrid, WaitTimeout: 1})
		if err2 != nil {
			t.Fatal(err2)
		}
		if err := sys2.AddObject("a", weihl83.Account()); err == nil {
			t.Error("hybrid with timeout accepted")
		}
	}
}

func TestFacadeRetryable(t *testing.T) {
	if weihl83.Retryable(errors.New("boring")) {
		t.Error("arbitrary error retryable")
	}
}

func TestFacadeParseHistory(t *testing.T) {
	h, err := weihl83.ParseHistory("<insert(3),x,a>\n<ok,x,a>\n<commit,x,a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 3 {
		t.Errorf("parsed %d events", len(h))
	}
	ck := weihl83.NewChecker()
	ck.Register("x", weihl83.IntSet().Spec)
	if _, err := ck.Atomic(h); err != nil {
		t.Errorf("not atomic: %v", err)
	}
	if _, err := weihl83.ParseHistory("<bogus"); err == nil {
		t.Error("bad history accepted")
	}
}

func TestFacadeUndoLogObject(t *testing.T) {
	sys := newDynamic(t, weihl83.Options{Property: weihl83.Dynamic})
	if err := sys.AddObject("a", weihl83.Account(), weihl83.WithUndoLog()); err != nil {
		t.Fatal(err)
	}
	txn := sys.Begin()
	if _, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(7)); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	var bal weihl83.Value
	if err := sys.Run(func(t2 *weihl83.Txn) error {
		v, err := t2.Invoke("a", weihl83.OpBalance, weihl83.Nil())
		bal = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if bal != weihl83.Int(0) {
		t.Errorf("balance after undo %v", bal)
	}
}

// TestFacadeReadOnlyRefusesWrites: under every property, guard and
// recovery variant, a read-only transaction's deposit is refused with the
// non-retryable "readonly" cause on the first attempt, and the balance is
// unchanged.
func TestFacadeReadOnlyRefusesWrites(t *testing.T) {
	type variant struct {
		name string
		prop weihl83.Property
		opts []weihl83.ObjectOption
	}
	var cases []variant
	for _, g := range []struct {
		name  string
		guard weihl83.Guard
	}{
		{"commut", weihl83.GuardCommut}, {"name-only", weihl83.GuardNameOnly}, {"rw", weihl83.GuardRW},
		{"escrow", weihl83.GuardEscrow}, {"exact", weihl83.GuardExact}, {"cascade", weihl83.GuardCascade},
	} {
		cases = append(cases, variant{"dynamic/" + g.name, weihl83.Dynamic, []weihl83.ObjectOption{weihl83.WithGuard(g.guard)}})
	}
	cases = append(cases,
		variant{"dynamic/undo-log", weihl83.Dynamic, []weihl83.ObjectOption{weihl83.WithUndoLog()}},
		variant{"static", weihl83.Static, nil},
		variant{"hybrid", weihl83.Hybrid, nil},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := newDynamic(t, weihl83.Options{Property: c.prop})
			if err := sys.AddObject("a", weihl83.Account(), c.opts...); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(func(txn *weihl83.Txn) error {
				_, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(10))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			attempts := 0
			err := sys.RunReadOnly(func(txn *weihl83.Txn) error {
				attempts++
				_, err := txn.Invoke("a", weihl83.OpDeposit, weihl83.Int(5))
				return err
			})
			if got := weihl83.AbortCause(err); got != "readonly" {
				t.Errorf("read-only deposit: err = %v (cause %q), want cause readonly", err, got)
			}
			if attempts != 1 {
				t.Errorf("read-only deposit ran %d attempts, want 1", attempts)
			}
			var bal weihl83.Value
			if err := sys.RunReadOnly(func(txn *weihl83.Txn) error {
				v, err := txn.Invoke("a", weihl83.OpBalance, weihl83.Nil())
				bal = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if bal != weihl83.Int(10) {
				t.Errorf("balance after the refused deposit = %v, want 10", bal)
			}
		})
	}
}
