package locking

import (
	"slices"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// TestRecycledEntryAllocatesOnlySteps: once an object has recycled an
// entry, a k-call transaction at it, invoke through commit, allocates no
// more than the k spec Steps that compute its results do on their own —
// the entry, its intentions array and the table slot are all reused.
func TestRecycledEntryAllocatesOnlySteps(t *testing.T) {
	const k = 16
	o, err := New(Config{ID: "y", Type: adts.Account(), Guard: conflict.ForType(adts.Account()), Detector: NewDetector()})
	if err != nil {
		t.Fatal(err)
	}
	invs := ladderCalls(k)
	a := txn("a", 1)
	run := func() {
		for _, inv := range invs {
			if _, err := o.Invoke(a, inv); err != nil {
				t.Fatal(err)
			}
		}
		o.Commit(a, histories.TSNone)
	}
	run()
	steps := func() {
		st := o.Base()
		for _, inv := range invs {
			st = st.Step(inv)[0].Next
		}
	}
	txnAllocs := testing.AllocsPerRun(100, run)
	stepAllocs := testing.AllocsPerRun(100, steps)
	if txnAllocs > stepAllocs {
		t.Errorf("a warm %d-call transaction allocates %.0f times, its %d Steps alone %.0f", k, txnAllocs, k, stepAllocs)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSweptWaiterNeverSharesAnEntry: a waiter aborted mid-wait (as the
// abandoned-transaction sweeper does) keeps its detached entry in hand, so
// that entry is never recycled. A later transaction takes a recycled entry;
// when the holder commits and the swept waiter is granted, its call lands
// in its own detached entry, and the later transaction's intentions and the
// committed base stay exactly its own.
func TestSweptWaiterNeverSharesAnEntry(t *testing.T) {
	det := NewDetector()
	o, err := New(Config{ID: "y", Type: adts.Account(), Guard: EscrowGuard{}, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	// The holder's pending deposit decides whether the waiter's withdraw
	// succeeds, so the waiter blocks.
	holder, waiter := txn("holder", 1), txn("waiter", 2)
	mustInvoke(t, o, holder, adts.OpDeposit, value.Int(5))
	errc := make(chan error, 1)
	go func() {
		_, err := o.Invoke(waiter, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(5)})
		errc <- err
	}()
	waitsAtLeast := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, waits := o.Stats(); waits >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the waiter blocked fewer than %d times in 5s", n)
			}
		}
	}
	entryOf := func(tx *cc.TxnInfo) *txnEntry {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.active.Lookup(tx.ID)
	}
	waitsAtLeast(1)
	used := []*txnEntry{entryOf(holder), entryOf(waiter)}
	// A deposit commits beside the holder and leaves its entry on the free
	// list; its commit wakes the waiter, which blocks again.
	warm := txn("warm", 3)
	mustInvoke(t, o, warm, adts.OpDeposit, value.Int(0))
	used = append(used, entryOf(warm))
	o.Commit(warm, histories.TSNone)
	waitsAtLeast(2)
	o.Abort(waiter)
	det.Forget(waiter.ID)

	later := txn("later", 4)
	mustInvoke(t, o, later, adts.OpDeposit, value.Int(1))
	if !slices.Contains(used, entryOf(later)) {
		t.Fatal("the later transaction did not take a recycled entry")
	}

	o.Commit(holder, histories.TSNone)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("swept waiter = %v, want granted once the holder committed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("swept waiter never returned")
	}
	own := spec.Call{Inv: spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)}, Result: value.Unit()}
	if calls := o.PendingCalls(later); len(calls) != 1 || calls[0] != own {
		t.Fatalf("later's pending calls = %v, want only its own %v", calls, own)
	}
	o.Commit(later, histories.TSNone)
	// Serially: the holder's 5, warm's 0 and later's 1; the waiter aborted.
	if bal := o.Base().(adts.AccountState).Balance(); bal != 6 {
		t.Fatalf("committed balance = %d, want 6", bal)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}
