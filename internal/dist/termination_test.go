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
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

var _ tx.Coordinator = (*DecisionLog)(nil)
var _ tx.Coordinator = (*Coordinator)(nil)

// DecisionLog is an in-memory commit/abort outcome log satisfying the
// runtime's coordinator hook (tx.Coordinator) in one process. It records
// both decisions explicitly, so a decided abort is distinguishable from a
// transaction it never heard of. Sites never consult it: they resolve
// in-doubt transactions through cooperative termination.
type DecisionLog struct {
	mu       sync.Mutex
	outcomes map[histories.ActivityID]bool
}

// NewDecisionLog returns an empty decision log.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{outcomes: make(map[histories.ActivityID]bool)}
}

// Begin satisfies tx.Coordinator; the in-memory log needs no begin record.
func (d *DecisionLog) Begin(histories.ActivityID) {}

// Decide records the outcome. It never fails.
func (d *DecisionLog) Decide(txn histories.ActivityID, commit bool) error {
	d.mu.Lock()
	d.outcomes[txn] = commit
	d.mu.Unlock()
	return nil
}

// RecordCommit records the decision to commit.
func (d *DecisionLog) RecordCommit(txn histories.ActivityID) { _ = d.Decide(txn, true) }

// RecordAbort records an explicit abort decision.
func (d *DecisionLog) RecordAbort(txn histories.ActivityID) { _ = d.Decide(txn, false) }

// Committed reports whether txn was decided committed.
func (d *DecisionLog) Committed(txn histories.ActivityID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.outcomes[txn]
}

// Outcome distinguishes decided-committed, decided-aborted, and
// never-heard-of-it.
func (d *DecisionLog) Outcome(txn histories.ActivityID) Outcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	return cachedOutcome(d.outcomes, txn)
}

// seedAcct0 deposits 50 into acct0.
func seedAcct0(t *testing.T, c *testCluster) {
	t.Helper()
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(50))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// prepareTransferByHand seeds acct0, runs a 10-unit cross-site transfer up
// to (and including) both yes-votes with the participant list logged, and
// makes the commit decision durable at the coordinator. The commit is NOT
// delivered to anyone yet.
func prepareTransferByHand(t *testing.T, c *testCluster) *cc.TxnInfo {
	t.Helper()
	seedAcct0(t, c)
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	info := &cc.TxnInfo{ID: txn.ID(), Participants: []string{"A", "B"}}
	c.coord.Begin(txn.ID())
	if err := c.remA.Prepare(info); err != nil {
		t.Fatal(err)
	}
	if err := c.remB.Prepare(info); err != nil {
		t.Fatal(err)
	}
	if err := c.coord.Decide(txn.ID(), true); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestInDoubtResolvedByPeerWhileCoordinatorDown is the acceptance scenario
// for cooperative termination: a participant crashes after voting yes, the
// commit lands at its peer, and then the coordinator crashes too. The
// recovering participant provably cannot consult live coordinator memory —
// the coordinator is down for the whole recovery — and must learn the
// commit from its peer's durable record.
func TestInDoubtResolvedByPeerWhileCoordinatorDown(t *testing.T) {
	c := newCluster(t, 0)
	peerBefore := obs.Default.Counter("dist.indoubt.resolved.peer").Load()
	info := prepareTransferByHand(t, c)

	c.siteB.Crash()
	c.remA.Commit(info, histories.TSNone) // peer A installs and logs the commit
	c.remB.Commit(info, histories.TSNone) // lost: B is down
	c.coord.Crash()

	if err := c.siteB.Recover(); err != nil {
		t.Fatalf("recover with coordinator down = %v, want peer resolution", err)
	}
	if c.coord.Up() {
		t.Fatal("coordinator came back by itself; the peer path was not proven")
	}
	key, err := c.siteB.CommittedStateKey("acct1")
	if err != nil {
		t.Fatal(err)
	}
	if key != "10" {
		t.Errorf("acct1 after peer-path recovery = %s, want 10", key)
	}
	if got := obs.Default.Counter("dist.indoubt.resolved.peer").Load() - peerBefore; got < 1 {
		t.Errorf("peer-resolution counter moved by %d, want >= 1", got)
	}
	// The outcome is durable at B: another crash+recovery needs no network
	// at all for this transaction.
	c.coord.Crash() // still down; keep it that way
	c.siteB.Crash()
	if err := c.siteB.Recover(); err != nil {
		t.Fatalf("second recovery = %v, want durable outcome, no protocol needed", err)
	}
	if key, _ := c.siteB.CommittedStateKey("acct1"); key != "10" {
		t.Errorf("acct1 after second recovery = %s, want 10", key)
	}
}

// TestCoordinatorCrashBeforeLogPresumesAbort: the coordinator crashes
// inside Decide before the decision reaches its log. The client's commit
// is orphaned — it finishes aborted, retryably, without broadcasting — and
// both prepared participants stay in doubt until the coordinator recovers
// with no trace of the transaction, which is a sound presumed abort.
func TestCoordinatorCrashBeforeLogPresumesAbort(t *testing.T) {
	inj := fault.New(1)
	c := newClusterInj(t, 0, inj)
	seedAcct0(t, c)
	presumeBefore := obs.Default.Counter("dist.indoubt.resolved.presumed-abort").Load()

	inj.Enable(fault.CoordCrashBeforeLog, fault.Rule{Prob: 1, Limit: 1})
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit()
	if err == nil {
		t.Fatal("commit succeeded although the coordinator crashed mid-decision")
	}
	if !errors.Is(err, cc.ErrCoordinatorDown) {
		t.Fatalf("commit error = %v, want ErrCoordinatorDown", err)
	}
	if !cc.Retryable(err) {
		t.Fatalf("orphaned commit error %v is not retryable", err)
	}
	if c.coord.Up() {
		t.Fatal("coordinator still up after injected crash")
	}
	// The orphaned client must NOT have broadcast aborts: both participants
	// hold their yes-votes, blocked in doubt.
	if a, b := c.siteA.PendingInDoubt(), c.siteB.PendingInDoubt(); a != 1 || b != 1 {
		t.Fatalf("in-doubt counts %d/%d, want 1/1 (no abort broadcast on orphaned commit)", a, b)
	}
	// While the coordinator is down the peers are in doubt too — the
	// resolver blocks rather than guessing.
	if n := c.siteA.ResolveInDoubt(0); n != 0 {
		t.Fatalf("resolved %d transactions with the coordinator down and peers in doubt", n)
	}
	if err := c.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	// The recovered coordinator has no trace: presumed abort at both sites.
	for _, s := range []*Site{c.siteA, c.siteB} {
		for s.PendingInDoubt() > 0 {
			s.ResolveInDoubt(0)
		}
	}
	if got := obs.Default.Counter("dist.indoubt.resolved.presumed-abort").Load() - presumeBefore; got < 2 {
		t.Errorf("presumed-abort counter moved by %d, want >= 2", got)
	}
	if got := c.balance(t, "acct0"); got != 50 {
		t.Errorf("acct0 = %d, want 50 (transfer presumed aborted)", got)
	}
	if got := c.balance(t, "acct1"); got != 0 {
		t.Errorf("acct1 = %d, want 0", got)
	}
}

// TestCoordinatorCrashAfterLogCommitSurvives: the coordinator crashes
// inside Decide after forcing the commit decision to its log. The client is
// orphaned all the same — it cannot know the decision landed — but the
// decision is durable: once the coordinator recovers (rebuilding its
// outcome cache from the log), the in-doubt participants resolve to commit
// and the transfer's effects appear exactly once.
func TestCoordinatorCrashAfterLogCommitSurvives(t *testing.T) {
	inj := fault.New(1)
	c := newClusterInj(t, 0, inj)
	seedAcct0(t, c)
	coordBefore := obs.Default.Counter("dist.indoubt.resolved.coordinator").Load()

	inj.Enable(fault.CoordCrashAfterLog, fault.Rule{Prob: 1, Limit: 1})
	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit()
	if !errors.Is(err, cc.ErrCoordinatorDown) {
		t.Fatalf("commit error = %v, want ErrCoordinatorDown (orphaned)", err)
	}
	if err := c.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	if !c.coord.Committed(txn.ID()) {
		t.Fatal("recovered coordinator does not know the durable commit")
	}
	for _, s := range []*Site{c.siteA, c.siteB} {
		for s.PendingInDoubt() > 0 {
			s.ResolveInDoubt(0)
		}
	}
	if got := obs.Default.Counter("dist.indoubt.resolved.coordinator").Load() - coordBefore; got < 2 {
		t.Errorf("coordinator-resolution counter moved by %d, want >= 2", got)
	}
	if got := c.balance(t, "acct0"); got != 40 {
		t.Errorf("acct0 = %d, want 40 (durable commit installed)", got)
	}
	if got := c.balance(t, "acct1"); got != 10 {
		t.Errorf("acct1 = %d, want 10", got)
	}
}

// TestUnanimousPeerRefusalPresumesAbort: one participant holds a yes-vote,
// the coordinator is down, and the peer never heard of the transaction.
// The peer's Unknown answer is a durable refusal — it logs an abort record
// under the vote mutex before answering — so the unanimous refusal is a
// sound presumed abort, and a later prepare of the same transaction at the
// peer is refused rather than voted yes.
func TestUnanimousPeerRefusalPresumesAbort(t *testing.T) {
	c := newCluster(t, 0)
	c.net.SetRPC(200*time.Microsecond, 0)
	presumeBefore := obs.Default.Counter("dist.indoubt.resolved.presumed-abort").Load()

	txn := c.manager.Begin()
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	info := &cc.TxnInfo{ID: txn.ID(), Participants: []string{"A", "B"}}
	if err := c.remB.Prepare(info); err != nil {
		t.Fatal(err)
	}
	c.coord.Crash()
	if n := c.siteB.ResolveInDoubt(0); n != 1 {
		t.Fatalf("resolved %d, want 1 (unanimous peer refusal)", n)
	}
	if got := obs.Default.Counter("dist.indoubt.resolved.presumed-abort").Load() - presumeBefore; got != 1 {
		t.Errorf("presumed-abort counter moved by %d, want 1", got)
	}
	if key, _ := c.siteB.CommittedStateKey("acct1"); key != "0" {
		t.Errorf("acct1 = %s, want 0 (presumed abort)", key)
	}
	// The refusal is binding: A refuses even to execute further operations
	// for this transaction, so it can never reach a yes-vote.
	_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(10))
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("invoke after durable refusal = %v, want ErrRefused", err)
	}
	if !cc.Retryable(err) {
		t.Fatalf("refusal %v is not retryable", err)
	}
}

// TestPartitionBlocksRecoveryUntilHeal: a network partition separates a
// recovering participant from both the coordinator and its peer. Recovery
// must NOT guess: it fails with ErrStillInDoubt and the site stays down.
// After the partition heals, recovery resolves through the coordinator's
// durable log.
func TestPartitionBlocksRecoveryUntilHeal(t *testing.T) {
	c := newCluster(t, 0)
	c.net.SetRPC(200*time.Microsecond, 0)
	info := prepareTransferByHand(t, c)

	c.siteB.Crash()
	c.remA.Commit(info, histories.TSNone)
	c.remB.Commit(info, histories.TSNone) // lost

	// The partition window is driven through the named fault point, as the
	// chaos harness does.
	inj := fault.New(1)
	inj.Enable(fault.NetPartition, fault.Rule{Prob: 1, Limit: 1})
	if inj.Fires(fault.NetPartition) {
		c.net.Partition([]SiteID{"C", "A"}, []SiteID{"B"})
	}
	if !c.net.Partitioned() {
		t.Fatal("partition did not open")
	}
	err := c.siteB.Recover()
	if !errors.Is(err, ErrStillInDoubt) {
		t.Fatalf("recover inside partition = %v, want ErrStillInDoubt", err)
	}
	if !cc.Retryable(err) {
		t.Fatalf("still-in-doubt error %v is not retryable", err)
	}
	if c.siteB.Up() {
		t.Fatal("site came up with an unresolved in-doubt transaction")
	}
	c.net.Heal()
	if err := c.siteB.Recover(); err != nil {
		t.Fatalf("recover after heal = %v", err)
	}
	if key, _ := c.siteB.CommittedStateKey("acct1"); key != "10" {
		t.Errorf("acct1 after heal = %s, want 10", key)
	}
}

// TestReplyCacheBoundedByEvictions: the at-most-once reply cache stays
// within its bound by evicting entries of transactions with a durable
// outcome, and counts the evictions.
func TestReplyCacheBoundedByEvictions(t *testing.T) {
	net := NewNetwork(0, 0, 1)
	coord, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: net})
	if err != nil {
		t.Fatal(err)
	}
	site, err := NewSite(SiteConfig{ID: "A", Network: net, Coordinators: []SiteID{"C"}})
	if err != nil {
		t.Fatal(err)
	}
	site.replyCap = 2
	if err := site.AddObject("acct0", adts.Account(), escrowGuard); err != nil {
		t.Fatal(err)
	}
	manager, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	if err := manager.Register(NewRemoteResource(net, "A", "acct0")); err != nil {
		t.Fatal(err)
	}
	evictsBefore := obs.Default.Counter("dist.reply.cache.evictions").Load()
	for i := 0; i < 8; i++ {
		if err := manager.Run(func(txn *tx.Txn) error {
			_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	site.mu.Lock()
	cached := len(site.replies)
	site.mu.Unlock()
	if cached > 2 {
		t.Errorf("reply cache holds %d entries, want <= 2 (all transactions decided)", cached)
	}
	if got := obs.Default.Counter("dist.reply.cache.evictions").Load() - evictsBefore; got == 0 {
		t.Error("no evictions counted although the cache overflowed its cap")
	}
	if key, _ := site.CommittedStateKey("acct0"); key != "8" {
		t.Errorf("acct0 = %s, want 8 (eviction must not break exactly-once)", key)
	}
}

// TestDecisionLogRecordsExplicitAborts: the single-process decision log
// distinguishes decided-commit, decided-abort, and never-heard-of-it.
func TestDecisionLogRecordsExplicitAborts(t *testing.T) {
	d := NewDecisionLog()
	d.Begin("t1") // no-op, satisfies tx.Coordinator
	d.RecordCommit("t1")
	d.RecordAbort("t2")
	if got := d.Outcome("t1"); got != OutcomeCommitted {
		t.Errorf("t1 = %v, want committed", got)
	}
	if got := d.Outcome("t2"); got != OutcomeAborted {
		t.Errorf("t2 = %v, want aborted (explicit abort recorded)", got)
	}
	if got := d.Outcome("t3"); got != OutcomeUnknown {
		t.Errorf("t3 = %v, want unknown", got)
	}
	if !d.Committed("t1") || d.Committed("t2") || d.Committed("t3") {
		t.Error("Committed() disagrees with Outcome()")
	}
	if err := d.Decide("t2", false); err != nil {
		t.Errorf("Decide = %v", err)
	}
}

// TestCoordinatorContinuityRule: a coordinator that crashed between a
// transaction's Begin and its Decide refuses to commit it afterwards — the
// volatile Begin entry did not survive, so the Unknown answers it may have
// given peers stay sound — and it durably records the abort instead.
func TestCoordinatorContinuityRule(t *testing.T) {
	net := NewNetwork(0, 0, 1)
	coord, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: net})
	if err != nil {
		t.Fatal(err)
	}
	coord.Begin("t1")
	coord.Crash()
	if err := coord.Recover(); err != nil {
		t.Fatal(err)
	}
	err = coord.Decide("t1", true)
	if err == nil {
		t.Fatal("coordinator committed a transaction whose Begin did not survive its crash")
	}
	if !cc.Retryable(err) {
		t.Fatalf("continuity refusal %v is not retryable", err)
	}
	if coord.Committed("t1") {
		t.Fatal("refused transaction recorded as committed")
	}
	if out := coord.queryOutcome("t1"); out != OutcomeAborted {
		t.Errorf("outcome after continuity refusal = %v, want aborted (durably recorded)", out)
	}
	// Decide against a down coordinator reports the orphan condition.
	coord.Crash()
	if err := coord.Decide("t2", true); !errors.Is(err, cc.ErrCoordinatorDown) {
		t.Errorf("Decide on down coordinator = %v, want ErrCoordinatorDown", err)
	}
}

// TestAbandonedUnpreparedTxnSwept: a transaction that invoked operations
// (acquiring locks) but never prepared — its client's abort broadcast was
// lost — is reclaimed by AbortAbandoned: the locks are released so new
// transactions make progress, the refusal is durable, and late messages
// from the dead transaction are refused. Recent and prepared transactions
// are left alone.
func TestAbandonedUnpreparedTxnSwept(t *testing.T) {
	c := newCluster(t, 0)
	seedAcct0(t, c)
	sweptBefore := obs.Default.Counter("dist.abandoned.swept").Load()

	dead := c.manager.Begin()
	if _, err := dead.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	// The client dies here and its abort never arrives. A sweep with a long
	// idle threshold leaves the still-recent transaction alone...
	if n := c.siteA.AbortAbandoned(time.Hour); n != 0 {
		t.Fatalf("swept %d with hour-long idle threshold, want 0", n)
	}
	// ...but once it counts as idle, the site aborts it unilaterally — it
	// never voted yes, so the site still has that authority.
	if n := c.siteA.AbortAbandoned(0); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if got := obs.Default.Counter("dist.abandoned.swept").Load() - sweptBefore; got != 1 {
		t.Errorf("swept counter moved by %d, want 1", got)
	}
	if key, _ := c.siteA.CommittedStateKey("acct0"); key != "50" {
		t.Errorf("acct0 = %s, want 50 (sweep aborted the withdraw)", key)
	}
	// The refusal is binding: late messages from the dead transaction are
	// turned away instead of re-acquiring locks.
	if _, err := dead.Invoke("acct0", adts.OpWithdraw, value.Int(5)); !errors.Is(err, ErrRefused) {
		t.Fatalf("invoke after sweep = %v, want ErrRefused", err)
	}
	// The escrow hold is gone: withdrawing the full balance succeeds, which
	// it could not while the swept withdraw's hold was pending.
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(50))
		return err
	}); err != nil {
		t.Fatalf("post-sweep withdraw = %v, want success (lock released)", err)
	}
	// A prepared transaction is never swept: it voted yes, so only the
	// in-doubt machinery may decide it.
	held := c.manager.Begin()
	if _, err := held.Invoke("acct1", adts.OpDeposit, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := c.remB.Prepare(&cc.TxnInfo{ID: held.ID(), Participants: []string{"B"}}); err != nil {
		t.Fatal(err)
	}
	if n := c.siteB.AbortAbandoned(0); n != 0 {
		t.Fatalf("swept %d prepared transactions, want 0", n)
	}
}

// TestSweptWaiterLeavesDetectorEmpty: an invoke that is blocked at a site
// when the sweeper aborts its transaction as abandoned keeps waiting behind
// the holder, entering the deadlock detector again after the sweeper's
// Forget. Once granted it is refused — and it must leave no detector entry
// behind, or the site's detector would stay resident for good.
func TestSweptWaiterLeavesDetectorEmpty(t *testing.T) {
	c := newCluster(t, 0)
	seedAcct0(t, c)
	o, err := c.siteA.object("acct0")
	if err != nil {
		t.Fatal(err)
	}
	// held reads acct0 and votes yes: a prepared holder is never swept.
	held := c.manager.Begin()
	if _, err := held.Invoke("acct0", adts.OpBalance, value.Nil()); err != nil {
		t.Fatal(err)
	}
	if err := c.remA.Prepare(&cc.TxnInfo{ID: held.ID(), Participants: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	dead := c.manager.Begin()
	errc := make(chan error, 1)
	go func() {
		_, err := dead.Invoke("acct0", adts.OpDeposit, value.Int(1))
		errc <- err
	}()
	waitFor(t, "the deposit to wait", func() bool { return detectorResident(c.siteA) == 1 })
	if n := c.siteA.AbortAbandoned(0); n != 1 {
		t.Fatalf("swept %d, want 1 (the waiting deposit)", n)
	}
	// A commit at acct0 wakes the swept waiter, which blocks behind held
	// again: its new wait postdates the sweeper's Forget.
	_, waitsBefore := o.Stats()
	if err := c.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpBalance, value.Nil())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the swept deposit to wait again", func() bool {
		_, waits := o.Stats()
		return waits > waitsBefore && detectorResident(c.siteA) == 1
	})
	held.Abort()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrRefused) {
			t.Fatalf("swept invoke = %v, want ErrRefused", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("swept invoke never returned")
	}
	if r := detectorResident(c.siteA); r != 0 {
		t.Fatalf("detector resident = %d after every transaction finished, want 0", r)
	}
}

// detectorResident reads the resident count of s's deadlock detector.
func detectorResident(s *Site) int {
	s.mu.Lock()
	det := s.detector
	s.mu.Unlock()
	return det.Resident()
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
