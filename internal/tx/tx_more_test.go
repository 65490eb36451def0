package tx_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

func TestRunNonRetryableStops(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	calls := 0
	err := m.Run(func(txn *tx.Txn) error {
		calls++
		_, err := txn.Invoke("acct1", "frobnicate", value.Nil())
		return err
	})
	if !errors.Is(err, cc.ErrInvalidOp) {
		t.Errorf("Run error = %v", err)
	}
	if calls != 1 {
		t.Errorf("non-retryable error retried %d times", calls)
	}
}

func TestRunRetriesExhausted(t *testing.T) {
	m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(alwaysConflict{}); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err = m.Run(func(txn *tx.Txn) error {
		attempts++
		_, err := txn.Invoke("x", "op", value.Nil())
		return err
	})
	if err == nil {
		t.Fatal("Run succeeded against a permanently conflicting resource")
	}
	if !errors.Is(err, cc.ErrConflict) {
		t.Errorf("exhaustion error %v does not wrap the last cause", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

// alwaysConflict is a resource whose invocations always raise a retryable
// conflict.
type alwaysConflict struct{}

func (alwaysConflict) ObjectID() histories.ObjectID { return "x" }
func (alwaysConflict) Invoke(*cc.TxnInfo, spec.Invocation) (value.Value, error) {
	return value.Nil(), cc.ErrConflict
}
func (alwaysConflict) Prepare(*cc.TxnInfo) error               { return nil }
func (alwaysConflict) Commit(*cc.TxnInfo, histories.Timestamp) {}
func (alwaysConflict) Abort(*cc.TxnInfo)                       {}

func TestStaticReadOnlyNeverConflicts(t *testing.T) {
	var src clock.Source
	m := newStaticSystem(t, &src)
	// Seed.
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("x", adts.OpInsert, value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A pure reader commits without retries regardless of position.
	for i := 0; i < 5; i++ {
		txn := m.Begin()
		if _, err := txn.Invoke("x", adts.OpMember, value.Int(1)); err != nil {
			t.Fatalf("reader aborted: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func newHybridSystemWAL(t *testing.T, disk recovery.Backend) *tx.Manager {
	t.Helper()
	det := locking.NewDetector()
	var src clock.Source
	m, err := tx.NewManager(tx.Config{Property: tx.Hybrid, Clock: &src, Detector: det, WAL: disk})
	if err != nil {
		t.Fatal(err)
	}
	o, err := hybridcc.New(hybridcc.Config{
		ID:       "acct1",
		Type:     adts.Account(),
		Guard:    locking.EscrowGuard{},
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(o); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHybridWithWAL(t *testing.T) {
	disk := &recovery.Disk{}
	m := newHybridSystemWAL(t, disk)
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(25))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The WAL carries the intentions and a timestamped commit record.
	recs := disk.Records()
	var sawIntentions, sawCommitTS bool
	for _, r := range recs {
		switch r.Kind {
		case recovery.RecordIntentions:
			sawIntentions = len(r.Calls) > 0
		case recovery.RecordCommit:
			sawCommitTS = r.TS != histories.TSNone
		}
	}
	if !sawIntentions || !sawCommitTS {
		t.Errorf("WAL missing intentions or timestamped commit: %+v", recs)
	}
}

// stalledWAL is an in-memory log whose durability stage hangs until release
// is closed: WriteBatch writes at once, but no wait returns before then.
type stalledWAL struct {
	recovery.Disk
	release chan struct{}
	writes  atomic.Int32
}

func (s *stalledWAL) WriteBatch(groups [][]recovery.Record) func() []error {
	s.writes.Add(1)
	wait := s.Disk.WriteBatch(groups)
	return func() []error { <-s.release; return wait() }
}

func (s *stalledWAL) AppendBatch(groups [][]recovery.Record) []error {
	return s.WriteBatch(groups)()
}

func (s *stalledWAL) Append(r recovery.Record) error {
	return s.AppendBatch([][]recovery.Record{{r}})[0]
}

// within fails the test if f is still running after ten seconds: it is
// blocked behind a stalled log force.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s is still blocked behind the stalled log force", what)
	}
}

// TestAbortDoesNotWaitForItsRecord: Abort writes its abort record but does
// not wait for it to be durable — restart presumes abort without it — so
// it returns, and releases its locks, while the log's force is stalled.
func TestAbortDoesNotWaitForItsRecord(t *testing.T) {
	wal := &stalledWAL{release: make(chan struct{})}
	defer close(wal.release)
	m, _ := newDynamicSystem(t, wal)

	t1 := m.Begin()
	if _, err := t1.Invoke("set", adts.OpInsert, value.Int(3)); err != nil {
		t.Fatal(err)
	}
	within(t, "Abort", t1.Abort)
	t2 := m.Begin()
	within(t, "a conflicting invocation after the abort", func() {
		if _, err := t2.Invoke("set", adts.OpMember, value.Int(3)); err != nil {
			t.Error(err)
		}
	})
	within(t, "a second Abort", t2.Abort)

	var aborts int
	for _, r := range wal.Records() {
		if r.Kind == recovery.RecordAbort {
			aborts++
		}
	}
	if aborts != 2 {
		t.Errorf("log holds %d abort records, want 2", aborts)
	}
}

// TestReadOnlyCommitWaitsForNoForce: a read-only commit hands its
// intentions and commit records to the log and returns without waiting for
// them to be durable — everything it read was installed after its own
// commit record was — while an update commit waits for its force. A
// read-only transaction may not deposit.
func TestReadOnlyCommitWaitsForNoForce(t *testing.T) {
	wal := &stalledWAL{release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(wal.release)
		}
	}()
	m, _ := newDynamicSystem(t, wal)

	ro := m.BeginReadOnly()
	if _, err := ro.Invoke("acct1", adts.OpBalance, value.Nil()); err != nil {
		t.Fatal(err)
	}
	within(t, "a read-only Commit", func() {
		if err := ro.Commit(); err != nil {
			t.Error(err)
		}
	})
	var intentions, commits int
	for _, r := range wal.Records() {
		if r.Txn != ro.ID() {
			continue
		}
		switch r.Kind {
		case recovery.RecordIntentions:
			if r.Object == "acct1" && len(r.Calls) == 1 && r.Calls[0].Inv.Op == adts.OpBalance {
				intentions++
			}
		case recovery.RecordCommit:
			commits++
		}
	}
	if intentions != 1 || commits != 1 {
		t.Errorf("log holds %d intentions and %d commit records of the read-only transaction, want 1 and 1", intentions, commits)
	}

	bad := m.BeginReadOnly()
	if _, err := bad.Invoke("acct1", adts.OpDeposit, value.Int(5)); !errors.Is(err, cc.ErrReadOnly) {
		t.Errorf("read-only deposit: err = %v, want cc.ErrReadOnly", err)
	}
	bad.Abort()

	up := m.Begin()
	if _, err := up.Invoke("acct1", adts.OpDeposit, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- up.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("update commit returned (%v) while its force is stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(wal.release)
	released = true
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update commit still blocked after the force was released")
	}
}

// TestGroupCommitPipelinesOnlyWhileQuiet: while at most two committers are
// in group commit, a leader hands leadership on as soon as its batch is
// written, so the next batch is written while this one's force is in
// flight. A third committer keeps leadership until its batch is durable,
// so a fourth queues behind it for the next batch instead of writing.
func TestGroupCommitPipelinesOnlyWhileQuiet(t *testing.T) {
	wal := &stalledWAL{release: make(chan struct{})}
	m, _ := newDynamicSystem(t, wal)
	var wg sync.WaitGroup
	commit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Run(func(txn *tx.Txn) error {
				_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
				return err
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	awaitWrites := func(n int32) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); wal.writes.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d batches written, want %d while every force is stalled", wal.writes.Load(), n)
			}
		}
	}
	for n := int32(1); n <= 3; n++ {
		commit()
		awaitWrites(n)
	}
	commit()
	time.Sleep(50 * time.Millisecond) // a write would show up at once
	if got := wal.writes.Load(); got != 3 {
		t.Errorf("%d batches written with three committers awaiting a stalled force, want 3: the third must hold leadership", got)
	}
	close(wal.release)
	wg.Wait()
	var commits int
	for _, r := range wal.Records() {
		if r.Kind == recovery.RecordCommit {
			commits++
		}
	}
	if commits != 4 {
		t.Errorf("log holds %d commit records, want 4", commits)
	}
}

func TestBeginAssignsDistinctIDs(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	a, b := m.Begin(), m.Begin()
	if a.ID() == b.ID() {
		t.Error("duplicate transaction ids")
	}
	if a.Timestamp() != histories.TSNone {
		t.Error("dynamic transaction has a timestamp")
	}
	a.Abort()
	b.Abort()
	_, aborts := m.Stats()
	if aborts != 2 {
		t.Errorf("aborts = %d", aborts)
	}
}
