package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// TestDownCoordinatorAnswersInDoubt: a coordinator that crashed after
// logging a commit may be asked before an exchange notices it is down. It
// has no decision map then, and must not promise presumed abort: it answers
// in-doubt, and the logged commit once it recovers.
func TestDownCoordinatorAnswersInDoubt(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: NewNetwork(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	coord.Begin("t1")
	if err := coord.Decide("t1", true); err != nil {
		t.Fatal(err)
	}
	coord.Crash()
	if out := coord.queryOutcome("t1"); out != OutcomeInDoubt {
		t.Fatalf("down coordinator answered %s for a logged commit, want %s", out, OutcomeInDoubt)
	}
	if err := coord.Recover(); err != nil {
		t.Fatal(err)
	}
	if out := coord.queryOutcome("t1"); out != OutcomeCommitted {
		t.Fatalf("recovered coordinator answered %s, want %s", out, OutcomeCommitted)
	}
}

// TestVoteAndRefusalNeverBothSucceed: a yes-vote and a peer's outcome query
// for the same transaction race. Either the query comes first and refuses
// the transaction, so the vote fails, or the vote comes first and the query
// answers in-doubt from the transaction's record: never a refusal promised
// against a logged yes-vote. Odd rounds hold the query back until the
// vote's intentions are logged, aiming it at the moment between that
// append and the half's insert into the record, which vote closes by
// holding voteMu across both.
func TestVoteAndRefusalNeverBothSucceed(t *testing.T) {
	s := decideSite(t, "A", true)
	for i := 0; i < 1000; i++ {
		txn := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("r%d", i)), Seq: int64(10 + i), Participants: []string{"A", "B"}}
		if _, err := s.handleInvoke(fresh(s), "acct0", txn, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)}, 0, 0); err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			voted   atomic.Bool
			prepErr error
			out     Outcome
		)
		logged := s.Disk().Len()
		wg.Add(2)
		go func() {
			defer wg.Done()
			prepErr = s.handlePrepare(fresh(s), "acct0", txn, 1, 0)
			voted.Store(true)
		}()
		go func() {
			defer wg.Done()
			for spin := 0; i%2 == 1 && s.Disk().Len() == logged && !voted.Load(); spin++ {
				if spin > 1000 {
					runtime.Gosched() // the vote is not running: let it
				}
			}
			out = s.queryOutcome(txn.ID)
		}()
		wg.Wait()
		if prepErr == nil {
			if out != OutcomeInDoubt {
				t.Fatalf("%s: vote succeeded but the query answered %s", txn.ID, out)
			}
			if err := s.handleAbort(fresh(s), "acct0", txn); err != nil {
				t.Fatal(err)
			}
		} else if out != OutcomeUnknown || !errors.Is(prepErr, ErrRefused) {
			t.Fatalf("%s: vote failed (%v) and the query answered %s", txn.ID, prepErr, out)
		}
	}
}

// countingDisk is an in-memory log that counts how often its records are
// read back whole.
type countingDisk struct {
	*recovery.Disk
	reads atomic.Int64
}

func (d *countingDisk) Records() []recovery.Record {
	d.reads.Add(1)
	return d.Disk.Records()
}

// TestRunningSitesNeverReadTheirLog: a running site answers every outcome
// question from its volatile tables. Migrations, a peer's query about a
// transaction no site heard of, the abandoned-transaction sweep and the
// in-doubt resolver's peer poll must not read any site's log back.
func TestRunningSitesNeverReadTheirLog(t *testing.T) {
	ids := []SiteID{"A", "B", "C"}
	counters := map[SiteID]*countingDisk{}
	disks := map[SiteID]recovery.Backend{}
	for _, id := range ids {
		d := &countingDisk{Disk: &recovery.Disk{}}
		counters[id], disks[id] = d, d
	}
	e := newElasticWith(t, elasticConfig{sites: ids, homes: []SiteID{"A", "B"}, disks: disks})
	e.net.SetRPC(200*time.Microsecond, 0)
	e.deposit(t, "acct0", 30)
	ctx := context.Background()
	for _, dest := range []SiteID{"B", "C", "A"} {
		if err := e.cluster.Migrate(ctx, "acct0", dest); err != nil {
			t.Fatalf("migrate acct0 to %s: %v", dest, err)
		}
		e.deposit(t, "acct0", 1)
	}

	// A peer asks about a transaction nobody heard of: a durable refusal.
	if out, err := e.net.QueryOutcome("A", "B", "nobody"); err != nil || out != OutcomeUnknown {
		t.Fatalf("peer query = %s, %v; want %s", out, err, OutcomeUnknown)
	}

	// An abandoned transaction is swept.
	dead := e.manager.Begin()
	if _, err := dead.Invoke("acct1", adts.OpDeposit, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	if n := e.sites["B"].AbortAbandoned(0); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}

	// A yes-vote at A whose coordinator is gone resolves by polling its
	// peer B, which refuses from memory: unanimous presumed abort.
	doubt := &cc.TxnInfo{ID: "doubt", Participants: []string{"A", "B"}}
	a := e.sites["A"]
	if _, err := a.handleInvoke(fresh(a), "acct0", doubt, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(7)}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.handlePrepare(fresh(a), "acct0", doubt, 1, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range e.coords {
		c.Crash()
	}
	for _, id := range ids {
		e.sites[id].ResolveInDoubt(0)
	}
	if n := a.PendingInDoubt(); n != 0 {
		t.Fatalf("%d transactions still in doubt at A, want 0", n)
	}

	for _, id := range ids {
		if n := counters[id].reads.Load(); n != 0 {
			t.Errorf("running site %s read its log back %d times, want 0", id, n)
		}
	}
}

// TestFailedCommitRecordHoldsTheExport: a site whose commit record fails to
// append keeps the half prepared and uncached, so the migration drain
// refuses to export the object until the resolver logs the commit. No
// baseline leaves a site ahead of its log, and after a crash of every site
// the transfer is counted exactly once.
func TestFailedCommitRecordHoldsTheExport(t *testing.T) {
	inj := fault.New(1)
	e := newElasticWith(t, elasticConfig{
		inj:    inj,
		sites:  []SiteID{"A", "B", "C"},
		homes:  []SiteID{"A", "B"},
		record: true,
	})
	e.deposit(t, "acct0", 50)

	// A transfer acct0 (at A) -> acct1 (at B), prepared at both and decided
	// commit by its coordinator; the decision is not delivered yet.
	txn := e.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	info := &cc.TxnInfo{ID: txn.ID(), Participants: []string{"A", "B"}}
	a, b := e.sites["A"], e.sites["B"]
	if err := a.handlePrepare(fresh(a), "acct0", info, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.handlePrepare(fresh(b), "acct1", info, 1, 0); err != nil {
		t.Fatal(err)
	}
	e.pool.Begin(info.ID)
	if err := e.pool.Decide(info.ID, true); err != nil {
		t.Fatal(err)
	}
	if err := b.handleCommit(fresh(b), "acct1", info); err != nil {
		t.Fatal(err)
	}

	// A's commit record fails: the half stays prepared and undecided.
	inj.Enable(fault.DiskAppendFail, fault.Rule{Prob: 1, Limit: 1})
	if err := a.handleCommit(fresh(a), "acct0", info); err == nil {
		t.Fatal("commit with a failed record append succeeded")
	}
	a.mu.Lock()
	prepared := a.txns[info.ID].voted()
	_, decided := a.decided.get(info.ID)
	a.mu.Unlock()
	if !prepared || decided {
		t.Fatalf("after a failed commit record: prepared=%v decided=%v, want true/false", prepared, decided)
	}

	// The drain refuses to export the object while the half is prepared.
	mig := &cc.TxnInfo{ID: "M-held:acct0", Participants: []string{"A", "C"}}
	if _, err := a.handleMigrateExport(fresh(a), "acct0", mig); !errors.Is(err, ErrMigrating) {
		t.Fatalf("export with a prepared half = %v, want ErrMigrating", err)
	}

	// The resolver learns the commit from the coordinator and logs it.
	if n := a.ResolveInDoubt(0); n != 1 {
		t.Fatalf("resolved %d, want 1", n)
	}
	logged := false
	for _, r := range a.Disk().Records() {
		if r.Kind == recovery.RecordCommit && r.Txn == info.ID {
			logged = true
		}
	}
	if !logged {
		t.Fatal("resolved commit has no commit record in A's log")
	}
	if err := e.cluster.Migrate(context.Background(), "acct0", "C"); err != nil {
		t.Fatalf("migrate after the commit record was logged: %v", err)
	}
	want := func(stage string) {
		t.Helper()
		if b0, b1 := e.balance(t, "acct0"), e.balance(t, "acct1"); b0 != 40 || b1 != 10 {
			t.Fatalf("balances %d/%d %s, want 40/10", b0, b1, stage)
		}
	}
	want("after the move")

	// Compact every log, crash every site, and recover: replay must count
	// the transfer once, at acct0's new home.
	for _, s := range e.sites {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Crash()
	}
	e.recoverAll(t)
	if home, _ := e.cluster.HomeOf("acct0"); home != "C" {
		t.Fatalf("home of acct0 after restart = %s, want C", home)
	}
	e.assertSinglyHomed(t, "acct0")
	want("after a crash and recovery of every site")
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	if err := ck.DynamicAtomic(e.recorder.history()); err != nil {
		t.Errorf("history not dynamic atomic: %v", err)
	}
}
