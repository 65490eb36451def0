package locking

import (
	"errors"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// testSink collects events thread-safely.
type testSink struct {
	mu sync.Mutex
	h  histories.History
}

func (s *testSink) sink() cc.EventSink {
	return func(e histories.Event) {
		s.mu.Lock()
		s.h = append(s.h, e)
		s.mu.Unlock()
	}
}

func (s *testSink) history() histories.History {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Clone()
}

func txn(id string, seq int64) *cc.TxnInfo {
	return &cc.TxnInfo{ID: histories.ActivityID(id), Seq: seq}
}

func newAccountObject(t *testing.T, g Guard, sink cc.EventSink) (*Object, *Detector) {
	t.Helper()
	det := NewDetector()
	o, err := New(Config{
		ID:       "y",
		Type:     adts.Account(),
		Guard:    g,
		Detector: det,
		Sink:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, det
}

func mustInvoke(t *testing.T, o *Object, tx *cc.TxnInfo, op string, arg value.Value) value.Value {
	t.Helper()
	v, err := o.Invoke(tx, spec.Invocation{Op: op, Arg: arg})
	if err != nil {
		t.Fatalf("invoke %s(%s) by %s: %v", op, arg, tx.ID, err)
	}
	return v
}

func TestObjectBasicCommit(t *testing.T) {
	var rec testSink
	o, _ := newAccountObject(t, EscrowGuard{}, rec.sink())
	a := txn("a", 1)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(10))
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	o.Commit(a, histories.TSNone)

	if got := o.Base().(adts.AccountState).Balance(); got != 10 {
		t.Errorf("balance after commit = %d, want 10", got)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
	h := rec.history()
	want := histories.MustParse(`
<deposit(10),y,a>
<ok,y,a>
<commit,y,a>
`)
	if !h.Equivalent(want) {
		t.Errorf("recorded history:\n%v\nwant:\n%v", h, want)
	}
	ck := core.NewChecker()
	ck.Register("y", adts.AccountSpec{})
	if err := ck.DynamicAtomic(h); err != nil {
		t.Errorf("recorded history not dynamic atomic: %v", err)
	}
}

func TestObjectAbortDiscardsIntentions(t *testing.T) {
	var rec testSink
	o, _ := newAccountObject(t, EscrowGuard{}, rec.sink())
	a := txn("a", 1)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(10))
	o.Abort(a)
	if got := o.Base().(adts.AccountState).Balance(); got != 0 {
		t.Errorf("balance after abort = %d, want 0", got)
	}
	b := txn("b", 2)
	if got := mustInvoke(t, o, b, adts.OpBalance, value.Nil()); got != value.Int(0) {
		t.Errorf("balance read %v after abort", got)
	}
}

// TestConcurrentWithdrawalsEscrow is §5.1 live: with balance 10, two
// transactions withdraw 4 and 3 concurrently without blocking, then both
// commit. The recorded history must be dynamic atomic.
func TestConcurrentWithdrawalsEscrow(t *testing.T) {
	var rec testSink
	o, _ := newAccountObject(t, EscrowGuard{}, rec.sink())
	a, b, c := txn("a", 1), txn("b", 2), txn("c", 3)

	mustInvoke(t, o, a, adts.OpDeposit, value.Int(10))
	o.Commit(a, histories.TSNone)

	// Interleave b and c without committing either.
	if got := mustInvoke(t, o, b, adts.OpWithdraw, value.Int(4)); got != value.Unit() {
		t.Errorf("b's withdrawal returned %v", got)
	}
	if got := mustInvoke(t, o, c, adts.OpWithdraw, value.Int(3)); got != value.Unit() {
		t.Errorf("c's withdrawal returned %v", got)
	}
	o.Commit(c, histories.TSNone)
	o.Commit(b, histories.TSNone)

	if got := o.Base().(adts.AccountState).Balance(); got != 3 {
		t.Errorf("final balance %d, want 3", got)
	}
	ck := core.NewChecker()
	ck.Register("y", adts.AccountSpec{})
	if err := ck.DynamicAtomic(rec.history()); err != nil {
		t.Errorf("history not dynamic atomic: %v", err)
	}
}

// TestConcurrentWithdrawalsBlockUnderTableGuard: the same workload under
// the commutativity table blocks the second withdrawal until the first
// commits — the §5.1 contrast.
func TestConcurrentWithdrawalsBlockUnderTableGuard(t *testing.T) {
	var rec testSink
	o, _ := newAccountObject(t, TableGuard{Conflicts: adts.AccountConflicts}, rec.sink())
	a, b, c := txn("a", 1), txn("b", 2), txn("c", 3)

	mustInvoke(t, o, a, adts.OpDeposit, value.Int(10))
	o.Commit(a, histories.TSNone)
	mustInvoke(t, o, b, adts.OpWithdraw, value.Int(4))

	done := make(chan value.Value, 1)
	go func() {
		v, err := o.Invoke(c, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(3)})
		if err != nil {
			done <- value.Str(err.Error())
			return
		}
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("c's withdrawal was not blocked (returned %v)", v)
	case <-time.After(50 * time.Millisecond):
	}
	o.Commit(b, histories.TSNone)
	select {
	case v := <-done:
		if v != value.Unit() {
			t.Errorf("c's withdrawal after unblock: %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("c's withdrawal never unblocked")
	}
	o.Commit(c, histories.TSNone)
	if got := o.Base().(adts.AccountState).Balance(); got != 3 {
		t.Errorf("final balance %d, want 3", got)
	}
}

// TestQueuePaperHistoryUnderExactGuard drives the full §5.1 queue
// interleaving through the protocol (E8's protocol side): the interleaved
// enqueues of a and b are granted concurrently, and after both commit, c
// dequeues 1, 2, 1, 2. A guard that denies an interleaved enqueue fails
// the test at the wait bound instead of hanging it.
func TestQueuePaperHistoryUnderExactGuard(t *testing.T) {
	var rec testSink
	det := NewDetector()
	o, err := New(Config{
		ID:          "x",
		Type:        adts.Queue(),
		Guard:       ExactGuard{},
		Detector:    det,
		Sink:        rec.sink(),
		WaitTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := txn("a", 1), txn("b", 2), txn("c", 3)
	mustInvoke(t, o, a, adts.OpEnqueue, value.Int(1))
	mustInvoke(t, o, b, adts.OpEnqueue, value.Int(1))
	mustInvoke(t, o, a, adts.OpEnqueue, value.Int(2))
	mustInvoke(t, o, b, adts.OpEnqueue, value.Int(2))
	o.Commit(a, histories.TSNone)
	o.Commit(b, histories.TSNone)
	want := []int64{1, 2, 1, 2}
	for i, w := range want {
		got := mustInvoke(t, o, c, adts.OpDequeue, value.Nil())
		if got != value.Int(w) {
			t.Errorf("dequeue %d = %v, want %d", i, got, w)
		}
	}
	o.Commit(c, histories.TSNone)

	ck := core.NewChecker()
	ck.Register("x", adts.QueueSpec{})
	if err := ck.DynamicAtomic(rec.history()); err != nil {
		t.Errorf("queue history not dynamic atomic: %v", err)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

func TestDeadlockDetectionAcrossObjects(t *testing.T) {
	det := NewDetector()
	newObj := func(id string) *Object {
		o, err := New(Config{
			ID:       histories.ObjectID(id),
			Type:     adts.Account(),
			Guard:    TableGuard{Conflicts: adts.AccountConflicts},
			Detector: det,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	ox, oy := newObj("x"), newObj("y")
	a, b := txn("a", 1), txn("b", 2)

	mustInvoke(t, ox, a, adts.OpDeposit, value.Int(1)) // a holds x
	mustInvoke(t, oy, b, adts.OpDeposit, value.Int(1)) // b holds y

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // a wants y, where b's deposit conflicts with a withdrawal
		defer wg.Done()
		_, err := oy.Invoke(a, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(1)})
		errs <- err
	}()
	go func() { // b wants x, where a's deposit conflicts with a withdrawal
		defer wg.Done()
		_, err := ox.Invoke(b, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(1)})
		errs <- err
	}()

	// Exactly one of the two must be chosen as victim; the other completes
	// once the victim aborts.
	var victimErr error
	select {
	case victimErr = <-errs:
	case <-time.After(5 * time.Second):
		t.Fatal("no deadlock detected")
	}
	if !errors.Is(victimErr, cc.ErrDeadlock) {
		t.Fatalf("victim error = %v, want ErrDeadlock", victimErr)
	}
	// The youngest (b, seq 2) must be the victim; abort it everywhere.
	if det.Doomed(b.ID) == nil {
		t.Error("victim selection did not doom the youngest transaction")
	}
	ox.Abort(b)
	oy.Abort(b)
	det.Forget(b.ID)

	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("survivor's invocation failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never unblocked")
	}
	wg.Wait()
	ox.Commit(a, histories.TSNone)
	oy.Commit(a, histories.TSNone)
	det.Forget(a.ID)
	assertDetectorEmpty(t, det)
}

func TestTimeoutWithoutDetector(t *testing.T) {
	o, err := New(Config{
		ID:          "y",
		Type:        adts.Account(),
		Guard:       TableGuard{Conflicts: adts.AccountConflicts},
		WaitTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := txn("a", 1), txn("b", 2)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(1))
	_, err = o.Invoke(b, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(1)})
	if !errors.Is(err, cc.ErrTimeout) {
		t.Errorf("blocked invoke = %v, want ErrTimeout", err)
	}
}

// TestAbortedWaiterStillSeesHolder: aborting a blocked invoker's entry
// underneath it (a site's abandoned-transaction sweeper does) wakes it, but
// the holder it conflicts with still blocks it — it must time out, not be
// granted as if the object had no other transaction.
func TestAbortedWaiterStillSeesHolder(t *testing.T) {
	o, err := New(Config{
		ID:          "y",
		Type:        adts.Account(),
		Guard:       TableGuard{Conflicts: adts.AccountConflicts},
		WaitTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := txn("a", 1), txn("b", 2)
	mustInvoke(t, o, a, adts.OpBalance, value.Nil())
	errc := make(chan error, 1)
	go func() {
		_, err := o.Invoke(b, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)})
		errc <- err
	}()
	for {
		if _, waits := o.Stats(); waits > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	o.Abort(b)
	if err := <-errc; !errors.Is(err, cc.ErrTimeout) {
		t.Fatalf("woken waiter = %v, want ErrTimeout behind the holder", err)
	}
}

func TestUpdateInPlaceUndo(t *testing.T) {
	det := NewDetector()
	o, err := New(Config{
		ID:            "y",
		Type:          adts.Account(),
		Guard:         TableGuard{Conflicts: adts.AccountConflicts},
		Detector:      det,
		UpdateInPlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := txn("a", 1)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(10))
	mustInvoke(t, o, a, adts.OpWithdraw, value.Int(3))
	// Effects are visible in place before commit.
	if got := o.Base().(adts.AccountState).Balance(); got != 7 {
		t.Errorf("in-place balance = %d, want 7", got)
	}
	o.Abort(a)
	if got := o.Base().(adts.AccountState).Balance(); got != 0 {
		t.Errorf("balance after undo = %d, want 0", got)
	}
	b := txn("b", 2)
	mustInvoke(t, o, b, adts.OpDeposit, value.Int(5))
	o.Commit(b, histories.TSNone)
	if got := o.Base().(adts.AccountState).Balance(); got != 5 {
		t.Errorf("balance after commit = %d, want 5", got)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	det := NewDetector()
	cases := []Config{
		{},
		{ID: "x"},
		{ID: "x", Type: adts.Account()},
		{ID: "x", Type: adts.Account(), Guard: EscrowGuard{}},                                                                // no detector, no timeout
		{ID: "x", Type: adts.Queue(), Guard: TableGuard{Conflicts: adts.QueueConflicts}, Detector: det, UpdateInPlace: true}, // queue has no inverter
		{ID: "x", Type: adts.Account(), Guard: EscrowGuard{}, Detector: det, UpdateInPlace: true},                            // state-based guard in place
		{ID: "x", Type: adts.Account(), Guard: ExactGuard{}, Detector: det, UpdateInPlace: true},                             // state-based guard in place
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
	if _, err := New(Config{ID: "x", Type: adts.Account(), Guard: EscrowGuard{}, Detector: det}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestInvalidOperationError(t *testing.T) {
	var rec testSink
	o, _ := newAccountObject(t, EscrowGuard{}, rec.sink())
	a := txn("a", 1)
	_, err := o.Invoke(a, spec.Invocation{Op: "frobnicate"})
	if !errors.Is(err, cc.ErrInvalidOp) {
		t.Errorf("invalid op error = %v", err)
	}
	if cc.Retryable(err) {
		t.Error("invalid op must not be retryable")
	}
}

func TestCommitUnknownTxnIsNoop(t *testing.T) {
	o, _ := newAccountObject(t, EscrowGuard{}, nil)
	o.Commit(txn("ghost", 9), histories.TSNone)
	o.Abort(txn("ghost", 9))
	if err := o.Prepare(txn("ghost", 9)); !errors.Is(err, cc.ErrUnknownTxn) {
		t.Errorf("prepare of unknown txn = %v", err)
	}
}

func TestStatsCount(t *testing.T) {
	o, _ := newAccountObject(t, EscrowGuard{}, nil)
	a := txn("a", 1)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(1))
	grants, _ := o.Stats()
	if grants != 1 {
		t.Errorf("grants = %d, want 1", grants)
	}
}
