package hybridcc

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/value"
)

func TestInnerExposesLockingObject(t *testing.T) {
	o := newAccount(t, nil)
	if o.Inner() == nil {
		t.Fatal("Inner() is nil")
	}
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(1))); err != nil {
		t.Fatal(err)
	}
	grants, _ := o.Inner().Stats()
	if grants != 1 {
		t.Errorf("inner grants = %d", grants)
	}
	o.Abort(a)
}

func TestPendingCalls(t *testing.T) {
	o := newAccount(t, nil)
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(5))); err != nil {
		t.Fatal(err)
	}
	calls := o.PendingCalls(a)
	if len(calls) != 1 || calls[0].Inv.Op != adts.OpDeposit {
		t.Errorf("pending calls %v", calls)
	}
	if got := o.PendingCalls(readOnly("r", 1)); got != nil {
		t.Errorf("read-only pending calls %v", got)
	}
	o.Abort(a)
}

func TestAbortPreparedUpdateUnblocksReader(t *testing.T) {
	o := newAccount(t, nil)
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(5))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	r := readOnly("r", 10)
	done := make(chan value.Value, 1)
	go func() {
		v, _ := o.Invoke(r, inv(adts.OpBalance, value.Nil()))
		done <- v
	}()
	// Abort the prepared update; the reader resumes and sees nothing.
	o.Abort(a)
	v := <-done
	if v != value.Int(0) {
		t.Errorf("reader saw %v after abort, want 0", v)
	}
	o.Commit(r, histories.TSNone)
}

func TestSnapshotBoundaryIsExclusive(t *testing.T) {
	o := newAccount(t, nil)
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(7))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	commit(t, o, a, 5)
	// A reader AT the commit timestamp must not see it (strictly below).
	r := readOnly("r", 5)
	v, err := o.Invoke(r, inv(adts.OpBalance, value.Nil()))
	if err != nil {
		t.Fatal(err)
	}
	if v != value.Int(0) {
		t.Errorf("reader at ts=cts saw %v, want 0 (prefix is strict)", v)
	}
	o.Commit(r, histories.TSNone)
}

func TestUpdateWithNoCallsCommits(t *testing.T) {
	o := newAccount(t, nil)
	a := update("a", 1)
	// Join without any calls (e.g. every invoke failed): prepare errors
	// with unknown txn, commit and abort are no-ops.
	if err := o.Prepare(a); err == nil {
		t.Error("prepare of unknown update succeeded")
	}
	commit(t, o, a, 3)
	o.Abort(a)
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

func TestHybridObjectIDAndGuardErrors(t *testing.T) {
	o := newAccount(t, nil)
	if o.ObjectID() != "y" {
		t.Errorf("ObjectID %s", o.ObjectID())
	}
	// Invalid inner config bubbles out of New.
	if _, err := New(Config{ID: "z", Type: adts.Account(), Detector: locking.NewDetector()}); err == nil {
		t.Error("nil guard accepted")
	}
}
