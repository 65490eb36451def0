package tx_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// newAccounts registers n funded table-guarded accounts acct0…acct(n-1)
// with a manager configured by cfg and returns the manager.
func newAccounts(t *testing.T, cfg tx.Config, n int, det *locking.Detector, wait time.Duration) *tx.Manager {
	t.Helper()
	m, err := tx.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o, err := locking.New(locking.Config{
			ID:          histories.ObjectID(fmt.Sprintf("acct%d", i)),
			Type:        adts.Account(),
			Guard:       locking.TableGuard{Conflicts: adts.AccountConflicts},
			Detector:    det,
			WaitTimeout: wait,
			Initial:     adts.AccountState(1 << 40),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// transfer moves one unit from one account to another in a fresh
// transaction, calling after (if set) after each step.
func transfer(t *testing.T, m *tx.Manager, from, to histories.ObjectID, after func()) {
	txn := m.Begin()
	if _, err := txn.Invoke(from, adts.OpWithdraw, value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if after != nil {
		after()
	}
	if _, err := txn.Invoke(to, adts.OpDeposit, value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if after != nil {
		after()
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if after != nil {
		after()
	}
}

// TestUncontendedTxnsNeverResident: transactions that never wait never
// enter the deadlock detector, so its resident count — and with it every
// Doomed/ClearWaiting/Forget call's need for the detector mutex — stays
// zero throughout 1000 transfers on four workers with disjoint accounts.
func TestUncontendedTxnsNeverResident(t *testing.T) {
	det := locking.NewDetector()
	const workers, perWorker = 4, 250
	m := newAccounts(t, tx.Config{Property: tx.Dynamic, Detector: det}, 2*workers, det, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := histories.ObjectID(fmt.Sprintf("acct%d", 2*w))
			to := histories.ObjectID(fmt.Sprintf("acct%d", 2*w+1))
			for i := 0; i < perWorker; i++ {
				transfer(t, m, from, to, func() {
					if r := det.Resident(); r != 0 {
						t.Errorf("detector resident = %d during an uncontended transaction", r)
					}
				})
			}
		}(w)
	}
	wg.Wait()
	if got, _ := m.Stats(); got != workers*perWorker {
		t.Fatalf("commits = %d, want %d", got, workers*perWorker)
	}
}

// TestUncontendedTransferAllocs pins the allocation cost of an uncontended
// two-object transfer through a manager with a deadlock detector: the
// detector adds nothing, the grant path sorts no empty holder list, each
// object reuses a recycled entry and its intentions array, and the
// transaction's join list lives inline.
func TestUncontendedTransferAllocs(t *testing.T) {
	det := locking.NewDetector()
	m := newAccounts(t, tx.Config{Property: tx.Dynamic, Detector: det}, 2, det, 0)
	run := func() { transfer(t, m, "acct0", "acct1", nil) }
	run()
	if got := testing.AllocsPerRun(200, run); got > 6 {
		t.Errorf("uncontended transfer allocates %.0f times, want <= 6", got)
	}
}

// TestGrantedInvokeAllocatesNoTimer: a granted invocation on an object
// with a WaitTimeout creates no timer — the timeout bounds blocked waits
// only, so its timer is made on the first block.
func TestGrantedInvokeAllocatesNoTimer(t *testing.T) {
	m := newAccounts(t, tx.Config{Property: tx.Dynamic}, 1, nil, time.Second)
	run := func() {
		txn := m.Begin()
		if _, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(200, run); got > 4 {
		t.Errorf("one-object deposit on a WaitTimeout object allocates %.0f times, want <= 4", got)
	}
}
