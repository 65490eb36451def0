package hybridcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

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

func newAccount(t *testing.T, sink cc.EventSink) *Object {
	t.Helper()
	o, err := New(Config{
		ID:       "y",
		Type:     adts.Account(),
		Guard:    locking.EscrowGuard{},
		Detector: locking.NewDetector(),
		Sink:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func update(id string, seq int64) *cc.TxnInfo {
	return &cc.TxnInfo{ID: histories.ActivityID(id), Seq: seq}
}

func readOnly(id string, ts histories.Timestamp) *cc.TxnInfo {
	return &cc.TxnInfo{ID: histories.ActivityID(id), TS: ts, ReadOnly: true}
}

func inv(op string, arg value.Value) spec.Invocation {
	return spec.Invocation{Op: op, Arg: arg}
}

// commit commits an update and checks the version log's head against the
// inner object's base: commits arrive in timestamp order, so the state the
// inner commit installed is the newest version.
func commit(t *testing.T, o *Object, txn *cc.TxnInfo, ts histories.Timestamp) {
	t.Helper()
	o.Commit(txn, ts)
	o.mu.Lock()
	head := o.versions.Head(o.ty.Spec.Init())
	o.mu.Unlock()
	if got, want := head.Key(), o.inner.Base().Key(); got != want {
		t.Errorf("after committing %s: version head %s, inner base %s", txn.ID, got, want)
	}
}

// TestSnapshotPrefix: a read-only activity with timestamp t sees exactly
// the committed updates with timestamps below t (§4.3).
func TestSnapshotPrefix(t *testing.T) {
	var rec testSink
	o := newAccount(t, rec.sink())

	// Update a deposits 10, commits with timestamp 2.
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(10))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	commit(t, o, a, 2)

	// Update b deposits 5, commits with timestamp 4.
	b := update("b", 2)
	if _, err := o.Invoke(b, inv(adts.OpDeposit, value.Int(5))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(b); err != nil {
		t.Fatal(err)
	}
	commit(t, o, b, 4)

	cases := []struct {
		ts   histories.Timestamp
		want int64
	}{
		{1, 0},  // before both
		{3, 10}, // between
		{5, 15}, // after both
	}
	for _, tc := range cases {
		r := readOnly(fmt.Sprintf("r%d", tc.ts), tc.ts)
		v, err := o.Invoke(r, inv(adts.OpBalance, value.Nil()))
		if err != nil {
			t.Fatalf("read ts=%d: %v", tc.ts, err)
		}
		if v != value.Int(tc.want) {
			t.Errorf("balance at ts=%d: %v, want %d", tc.ts, v, tc.want)
		}
		o.Commit(r, histories.TSNone)
	}

	h := rec.history()
	if err := h.WellFormedHybrid(); err != nil {
		t.Errorf("history not hybrid well-formed: %v\n%v", err, h)
	}
	ck := core.NewChecker()
	ck.Register("y", adts.AccountSpec{})
	if err := ck.HybridAtomic(h); err != nil {
		t.Errorf("history not hybrid atomic: %v\n%v", err, h)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

// TestReadOnlyDoesNotBlockUpdates: an active read-only activity never
// delays an update — the audit problem solved (§4.3.3).
func TestReadOnlyDoesNotBlockUpdates(t *testing.T) {
	o := newAccount(t, nil)
	r := readOnly("r", 1)
	if _, err := o.Invoke(r, inv(adts.OpBalance, value.Nil())); err != nil {
		t.Fatal(err)
	}
	// The read-only activity has NOT committed; the update proceeds
	// immediately anyway.
	a := update("a", 1)
	done := make(chan error, 1)
	go func() {
		_, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(5)))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("update blocked or failed against read-only activity: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update blocked by a read-only activity")
	}
	o.Commit(r, histories.TSNone)
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	commit(t, o, a, 2)
}

// TestReadOnlyWaitsForPreparedUpdate: an update prepared with a floor below
// the reader's timestamp may still commit below it (its commit timestamp is
// drawn after the floor, nothing more), so the reader waits — and sees the
// update's effects once it commits below it.
func TestReadOnlyWaitsForPreparedUpdate(t *testing.T) {
	o := newAccount(t, nil)
	a := prepareDeposit(t, o, "a", 1, 7, 1)
	// The reader's timestamp is above the floor and, as it turns out,
	// above the update's commit timestamp.
	r := readOnly("r", 10)
	done := readAsync(t, o, r)
	mustBlock(t, done)
	commit(t, o, a, 2)
	if v := mustReturn(t, done); v != value.Int(7) {
		t.Errorf("reader saw %v, want 7", v)
	}
	o.Commit(r, histories.TSNone)
	_, roWaits := o.Stats()
	if roWaits == 0 {
		t.Error("expected the reader to register a wait")
	}
}

func TestReadOnlyCannotMutate(t *testing.T) {
	o := newAccount(t, nil)
	r := readOnly("r", 1)
	_, err := o.Invoke(r, inv(adts.OpDeposit, value.Int(5)))
	if !errors.Is(err, cc.ErrReadOnly) {
		t.Errorf("mutation by read-only = %v, want ErrReadOnly", err)
	}
}

func TestReadOnlyNeedsTimestamp(t *testing.T) {
	o := newAccount(t, nil)
	_, err := o.Invoke(&cc.TxnInfo{ID: "r", ReadOnly: true}, inv(adts.OpBalance, value.Nil()))
	if err == nil {
		t.Error("read-only without timestamp accepted")
	}
}

func TestCommitTimestampMonotonicityGuard(t *testing.T) {
	o := newAccount(t, nil)
	a := update("a", 1)
	if _, err := o.Invoke(a, inv(adts.OpDeposit, value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(a); err != nil {
		t.Fatal(err)
	}
	commit(t, o, a, 5)
	b := update("b", 2)
	if _, err := o.Invoke(b, inv(adts.OpDeposit, value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(b); err != nil {
		t.Fatal(err)
	}
	o.Commit(b, 3) // below the log head: must be flagged
	if err := o.Err(); err == nil {
		t.Error("non-monotone commit timestamp not flagged")
	}
}

func TestReadOnlyAbort(t *testing.T) {
	var rec testSink
	o := newAccount(t, rec.sink())
	r := readOnly("r", 1)
	if _, err := o.Invoke(r, inv(adts.OpBalance, value.Nil())); err != nil {
		t.Fatal(err)
	}
	o.Abort(r)
	h := rec.history()
	if len(h.Aborted()) != 1 {
		t.Errorf("abort not recorded: %v", h)
	}
	// Idempotent no-ops for unknown transactions.
	o.Abort(readOnly("ghost", 9))
	o.Commit(readOnly("ghost", 9), histories.TSNone)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ID: "y", Type: adts.Account(), Guard: locking.EscrowGuard{}}); err == nil {
		t.Error("missing detector accepted")
	}
	if _, err := New(Config{Type: adts.Account(), Guard: locking.EscrowGuard{}, Detector: locking.NewDetector()}); err == nil {
		t.Error("missing ID accepted")
	}
}

// admitAll grants every update. It breaks the locking.Guard soundness
// contract on purpose, to reach a commit whose replay diverges.
type admitAll struct{}

func (admitAll) Allowed(spec.State, []spec.Call, spec.Call, [][]spec.Call) (bool, error) {
	return true, nil
}

// TestDivergentCommitAppendsNoVersion: T1 and T2 each withdraw 60 from a
// balance of 100 and T1 commits first. T2's commit replays onto 40, which
// the inner object flags; the hybrid object must flag it too and keep the
// version log at T1's state.
func TestDivergentCommitAppendsNoVersion(t *testing.T) {
	o, err := New(Config{ID: "y", Type: adts.Account(), Guard: admitAll{}, Detector: locking.NewDetector()})
	if err != nil {
		t.Fatal(err)
	}
	seed := update("seed", 1)
	if _, err := o.Invoke(seed, inv(adts.OpDeposit, value.Int(100))); err != nil {
		t.Fatal(err)
	}
	commit(t, o, seed, 2)
	t1, t2 := update("t1", 2), update("t2", 3)
	for _, tx := range []*cc.TxnInfo{t1, t2} {
		if v, err := o.Invoke(tx, inv(adts.OpWithdraw, value.Int(60))); err != nil || v != value.Unit() {
			t.Fatalf("%s withdraw(60) = %v, %v; want ok", tx.ID, v, err)
		}
	}
	commit(t, o, t1, 3)
	o.Commit(t2, 4)
	if o.Err() == nil {
		t.Fatal("divergent commit not flagged")
	}
	o.mu.Lock()
	n, head := o.versions.Len(), o.versions.Head(o.ty.Spec.Init())
	o.mu.Unlock()
	if n != 2 || head.(adts.AccountState).Balance() != 40 {
		t.Errorf("version log holds %d versions, head %s; want 2, balance 40", n, head.Key())
	}
}
