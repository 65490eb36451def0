package dist

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// newReplicated builds the elastic harness and turns on replica groups at
// the given factor.
func newReplicated(t testing.TB, factor int, inj *fault.Injector) *elastic {
	t.Helper()
	e := newElastic(t, 0, inj)
	e.replicate(t, factor)
	return e
}

// replicate turns on replica groups at the given factor and waits for
// every follower's baseline seed to land.
func (e *elastic) replicate(tb testing.TB, factor int) {
	tb.Helper()
	if err := e.cluster.EnableReplication(factor); err != nil {
		tb.Fatalf("enable replication: %v", err)
	}
	tb.Cleanup(e.cluster.Close)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		tb.Fatalf("seed drain: %v", err)
	}
}

// assertConverged fails unless every follower's newest replica state equals
// the leader's committed state for obj.
func (e *elastic) assertConverged(t *testing.T, obj histories.ObjectID) {
	t.Helper()
	set := e.cluster.ReplicaSet(obj)
	if len(set) < 2 {
		t.Fatalf("replica set of %s = %v, want leader plus followers", obj, set)
	}
	leaderKey, err := e.sites[set[0]].CommittedStateKey(obj)
	if err != nil {
		t.Fatalf("leader state of %s: %v", obj, err)
	}
	for _, f := range set[1:] {
		key, _, err := e.sites[f].ReplicaStateKey(obj)
		if err != nil {
			t.Fatalf("replica state of %s at %s: %v", obj, f, err)
		}
		if key != leaderKey {
			t.Errorf("replica %s of %s diverged: %q, leader has %q", f, obj, key, leaderKey)
		}
	}
}

// TestReplicationSeedsFollowers: enabling replication at factor three fans
// each object's committed baseline out to two followers, and the replica
// set is the leader plus those followers.
func TestReplicationSeedsFollowers(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 70)
	e.replicate(t, 3)
	if got := e.cluster.ReplicationFactor(); got != 3 {
		t.Errorf("replication factor = %d, want 3", got)
	}
	for _, obj := range []histories.ObjectID{"acct0", "acct1"} {
		set := e.cluster.ReplicaSet(obj)
		if len(set) != 3 {
			t.Fatalf("replica set of %s = %v, want 3 members", obj, set)
		}
		home, _ := e.cluster.HomeOf(obj)
		if set[0] != home {
			t.Errorf("replica set of %s leads with %s, home is %s", obj, set[0], home)
		}
		for _, f := range set[1:] {
			if !e.sites[f].Follows(obj) {
				t.Errorf("site %s does not follow %s", f, obj)
			}
		}
		e.assertConverged(t, obj)
	}
}

// TestCommutingDepositsConverge: commuting operations commit through the
// leader without any sync barrier and their calls stream asynchronously to
// every follower, which converges to the leader's exact state.
func TestCommutingDepositsConverge(t *testing.T) {
	e := newReplicated(t, 3, nil)
	for i := int64(1); i <= 20; i++ {
		e.deposit(t, "acct0", i)
	}
	e.deposit(t, "acct1", 99)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 210 {
		t.Fatalf("leader balance = %d, want 210", got)
	}
	e.assertConverged(t, "acct0")
	e.assertConverged(t, "acct1")
}

// TestReadAnySnapshotAudit: a read-only activity executes against a
// follower at the replicator's stable timestamp. While a committed
// transaction's delivery is still in flight (held back by
// fault.ReplDeliverDrop), the pinned snapshot excludes it — the audit sees
// the pre-transaction state, not a half-replicated one — and once the
// deliveries drain a fresh audit sees the new state.
func TestReadAnySnapshotAudit(t *testing.T) {
	inj := fault.New(11)
	e := newReplicated(t, 3, inj)
	e.deposit(t, "acct0", 100)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	router := e.cluster.ReadRouter()
	if router == nil {
		t.Fatal("read router is nil with replication on")
	}
	res := router("acct0")
	if res == nil {
		t.Fatal("read router returned nil for a replicated object")
	}
	balanceAt := func(id histories.ActivityID) int64 {
		t.Helper()
		txn := &cc.TxnInfo{ID: id, ReadOnly: true}
		v, err := res.Invoke(txn, spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()})
		if err != nil {
			t.Fatalf("replica read: %v", err)
		}
		res.Commit(txn, 0)
		return v.MustInt()
	}
	if got := balanceAt("audit-settled"); got != 100 {
		t.Fatalf("settled audit = %d, want 100", got)
	}
	// Hold every delivery in flight and commit another deposit: the stable
	// timestamp stays below its stamp, so a new audit still reads 100.
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 1})
	e.deposit(t, "acct0", 50)
	if got := balanceAt("audit-inflight"); got != 100 {
		t.Errorf("audit during in-flight delivery = %d, want 100 (snapshot must exclude unapplied commits)", got)
	}
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 0})
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if got := balanceAt("audit-after"); got != 150 {
		t.Errorf("audit after drain = %d, want 150", got)
	}
	e.assertConverged(t, "acct0")
}

// TestSyncBarrierBlocksNonCommuting: a transaction whose calls are not a
// proven-commutative class must drain the object's in-flight deliveries
// before its 2PC prepare. With deliveries wedged the barrier times out into
// a retryable refusal; once they drain, the same withdrawal commits, and
// the followers converge through it.
func TestSyncBarrierBlocksNonCommuting(t *testing.T) {
	inj := fault.New(12)
	e := newReplicated(t, 3, inj)
	e.deposit(t, "acct0", 100)
	// Wedge the delivery plane, then commit a deposit: its two follower
	// deliveries stay in flight indefinitely.
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 1})
	e.deposit(t, "acct0", 10)
	// A withdrawal conflicts with everything, so its prepare hits the sync
	// barrier and must refuse retryably at the drain timeout.
	txn := e.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(30)); err != nil {
		t.Fatalf("withdraw invoke: %v", err)
	}
	err := txn.Commit()
	if err == nil {
		t.Fatal("non-commuting commit succeeded across a wedged sync barrier")
	}
	if !cc.Retryable(err) {
		t.Fatalf("sync barrier refusal not retryable: %v", err)
	}
	// Heal the delivery plane; the wedged deliveries stick and the barrier
	// opens.
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 0})
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if err := e.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(30))
		return err
	}); err != nil {
		t.Fatalf("withdraw after drain: %v", err)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 80 {
		t.Fatalf("balance = %d, want 80", got)
	}
	e.assertConverged(t, "acct0")
}

// TestFollowerCrashRecoveryConverges: a follower that crashes inside the
// replica-apply windows (fault.ReplApplyCrash) recovers its copy from its
// own WAL, the delivery worker re-handshakes and redelivers, and the
// follower converges without re-applying anything twice.
func TestFollowerCrashRecoveryConverges(t *testing.T) {
	inj := fault.New(13)
	e := newReplicated(t, 3, inj)
	e.deposit(t, "acct0", 40)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	// The next replica apply crashes its follower (first window: before the
	// delivery is logged).
	inj.Enable(fault.ReplApplyCrash, fault.Rule{Prob: 1, Limit: 1})
	e.deposit(t, "acct0", 7)
	e.deposit(t, "acct0", 8)
	// The crashed follower wedges its queue; recover it and the worker's
	// redelivery catches it up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		crashed := 0
		for _, s := range e.sites {
			if !s.Up() {
				crashed++
			}
		}
		if crashed > 0 || time.Now().After(deadline) {
			if crashed == 0 {
				t.Fatal("no follower crashed under ReplApplyCrash")
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	e.recoverAll(t)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after recovery: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 55 {
		t.Fatalf("balance = %d, want 55", got)
	}
	e.assertConverged(t, "acct0")
}

// TestFollowerCrashBetweenLogAndCommit: the second ReplApplyCrash window —
// after the delivery's intentions record, before its commit record — leaves
// an uncommitted ReplicaIn record in the WAL. Replay must ignore it, the
// redelivery re-logs the same rid, and the follower applies the calls
// exactly once.
func TestFollowerCrashBetweenLogAndCommit(t *testing.T) {
	// Second hit of the point, not the first: schedule [false, true].
	seed := seedForSchedule(t, fault.ReplApplyCrash, 0.5, []bool{false, true})
	inj := fault.New(seed)
	e := newReplicated(t, 3, inj)
	e.deposit(t, "acct0", 40)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	inj.Enable(fault.ReplApplyCrash, fault.Rule{Prob: 0.5, Limit: 1})
	e.deposit(t, "acct0", 5)
	deadline := time.Now().Add(5 * time.Second)
	for {
		crashed := false
		for _, s := range e.sites {
			if !s.Up() {
				crashed = true
			}
		}
		if crashed || time.Now().After(deadline) {
			if !crashed {
				t.Fatal("no follower crashed under ReplApplyCrash window two")
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	e.recoverAll(t)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after recovery: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 45 {
		t.Fatalf("balance = %d, want 45", got)
	}
	e.assertConverged(t, "acct0")
}

// TestMigrationMovesReplicaSet: a shard migration moves the whole replica
// group, not just the home. The new leader stops following (it now hosts),
// a freshly added follower is seeded from the migrated baseline, departed
// followers refuse replica reads, and post-migration commits replicate to
// the recomputed set.
func TestMigrationMovesReplicaSet(t *testing.T) {
	e := newReplicated(t, 3, nil)
	e.deposit(t, "acct0", 60)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after migration: %v", err)
	}
	set := e.cluster.ReplicaSet("acct0")
	if len(set) != 3 || set[0] != "B" {
		t.Fatalf("replica set after migration = %v, want B plus two followers", set)
	}
	if e.sites["B"].Follows("acct0") {
		t.Error("new leader B still follows acct0")
	}
	for _, f := range set[1:] {
		if f == "B" {
			t.Fatalf("leader B appears as its own follower: %v", set)
		}
		if !e.sites[f].Follows("acct0") {
			t.Errorf("recomputed follower %s does not follow acct0", f)
		}
	}
	if got := e.balance(t, "acct0"); got != 60 {
		t.Fatalf("balance after migration = %d, want 60", got)
	}
	e.assertConverged(t, "acct0")
	// Post-migration commits replicate to the new set.
	e.deposit(t, "acct0", 9)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after post-migration deposit: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 69 {
		t.Fatalf("balance = %d, want 69", got)
	}
	e.assertConverged(t, "acct0")
	// The new leader refuses replica reads — it is not a follower.
	if _, err := e.net.QueryReplicaRead("", "B", "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, 1<<40); !errors.Is(err, ErrNotReplica) {
		t.Errorf("replica read at the new leader: err = %v, want ErrNotReplica", err)
	}
}

// TestReplicationPartitionWindow mirrors the chaos harness's partition
// driver: gated on fault.ReplPartition, one follower is split from every
// other site and both coordinators for a window. The replicator's delivery
// plane is an external control plane (origin "") the partition never
// severs, so commits on the majority side keep replicating; after the heal
// everything has converged.
func TestReplicationPartitionWindow(t *testing.T) {
	inj := fault.New(14)
	e := newReplicated(t, 3, inj)
	e.deposit(t, "acct0", 20)
	inj.Enable(fault.ReplPartition, fault.Rule{Prob: 1, Limit: 1})
	if inj.Fires(fault.ReplPartition) {
		e.net.Partition([]SiteID{"C"})
	}
	e.deposit(t, "acct0", 30)
	e.net.Heal()
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after heal: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 50 {
		t.Fatalf("balance = %d, want 50", got)
	}
	e.assertConverged(t, "acct0")
	e.assertConverged(t, "acct1")
}

// TestReadOnlyRunRoutesToReplicas: the transaction runtime's read-any
// wiring end to end — a manager configured with the cluster's ReadRouter
// sends read-only transactions' invocations to follower snapshot reads (no
// locks, no 2PC at the leader), and a two-object audit against the pinned
// snapshot timestamp sees a consistent total.
func TestReadOnlyRunRoutesToReplicas(t *testing.T) {
	e := newReplicated(t, 3, nil)
	e.deposit(t, "acct0", 30)
	e.deposit(t, "acct1", 12)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	auditMgr := e.newManager(t, tx.Config{Property: tx.Dynamic, ReadRouter: e.cluster.ReadRouter()})
	before := obsReplReads.Load()
	var total int64
	if err := auditMgr.RunReadOnly(func(txn *tx.Txn) error {
		total = 0
		for _, obj := range []histories.ObjectID{"acct0", "acct1"} {
			v, err := txn.Invoke(obj, adts.OpBalance, value.Nil())
			if err != nil {
				return err
			}
			total += v.MustInt()
		}
		return nil
	}); err != nil {
		t.Fatalf("read-only audit: %v", err)
	}
	if total != 42 {
		t.Errorf("audit total = %d, want 42", total)
	}
	if got := obsReplReads.Load() - before; got < 2 {
		t.Errorf("replica reads during audit = %d, want >= 2 (audit did not route to followers)", got)
	}
	// Update transactions never consult the router: a deposit through the
	// same manager still commits at the leader.
	if err := auditMgr.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1))
		return err
	}); err != nil {
		t.Fatalf("update through audit manager: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 31 {
		t.Errorf("balance = %d, want 31", got)
	}
}

// TestReplicaReadBelowFloorRefuses: a snapshot older than a follower's
// floor refuses with ErrReplicaLag (retryable — the audit re-pins), never
// answers from a wrong version.
func TestReplicaReadBelowFloorRefuses(t *testing.T) {
	e := newReplicated(t, 3, nil)
	e.deposit(t, "acct0", 10)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	set := e.cluster.ReplicaSet("acct0")
	_, err := e.net.QueryReplicaRead("", set[1], "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, 0)
	if !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("read below floor: err = %v, want ErrReplicaLag", err)
	}
	if !cc.Retryable(err) {
		t.Errorf("ErrReplicaLag must be retryable: %v", err)
	}
}

// TestReplicaCompactionMovesFloor: more than replicaVersionCap deliveries
// make a follower drop the oldest half of its version log. A read at the
// new floor answers the state of the oldest kept version; a read one below
// it refuses with ErrReplicaLag, retryably.
func TestReplicaCompactionMovesFloor(t *testing.T) {
	e := newReplicated(t, 3, nil)
	for i := 0; i < replicaVersionCap+44; i++ {
		e.deposit(t, "acct0", 1)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	follower := e.sites[e.cluster.ReplicaSet("acct0")[1]]
	follower.mu.Lock()
	n, floor := follower.replicas["acct0"].Len(), follower.replicas["acct0"].Floor()
	follower.mu.Unlock()
	// The seed plus 256 deliveries overflow the cap once: 128 versions go,
	// and the 44 later deliveries land on the kept 129.
	if n != 129+44 {
		t.Fatalf("follower keeps %d versions, want %d after one halving", n, 129+44)
	}
	read := func(ts histories.Timestamp) (value.Value, error) {
		return e.net.QueryReplicaRead("", follower.ID(), "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, ts)
	}
	v, err := read(floor)
	if err != nil {
		t.Fatalf("read at the floor %d: %v", floor, err)
	}
	if got := v.MustInt(); got != 128 {
		t.Errorf("balance at the floor = %d, want 128 (the 128th delivery is the oldest kept)", got)
	}
	_, err = read(floor - 1)
	if !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("read one below the floor: err = %v, want ErrReplicaLag", err)
	}
	if !cc.Retryable(err) {
		t.Errorf("ErrReplicaLag must be retryable: %v", err)
	}
}

// recoverAfterDelivery is a site's stable storage that, once armed, crashes
// and recovers the site right after a replica delivery's commit record
// lands: the window between the delivery becoming durable and its version
// reaching the in-memory log.
type recoverAfterDelivery struct {
	recovery.Backend
	site  *Site
	armed atomic.Bool
	err   error
}

func (d *recoverAfterDelivery) Append(r recovery.Record) error {
	err := d.Backend.Append(r)
	if err == nil && r.Kind == recovery.RecordCommit && strings.HasPrefix(string(r.Txn), "repl!") && d.armed.CompareAndSwap(true, false) {
		d.site.Crash()
		d.err = d.site.Recover()
	}
	return err
}

// TestReplicaApplyRacingRecovery: a follower that crashes and recovers
// between logging a delivery and installing it rebuilds its log from the
// WAL, which already ends at the delivery's timestamp. The apply must not
// append that version again, and must not count it as an apply error.
func TestReplicaApplyRacingRecovery(t *testing.T) {
	disks := map[SiteID]recovery.Backend{}
	wrappers := map[SiteID]*recoverAfterDelivery{}
	for _, id := range []SiteID{"A", "B", "C"} {
		w := &recoverAfterDelivery{Backend: &recovery.Disk{}}
		disks[id], wrappers[id] = w, w
	}
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B", "C"}, homes: []SiteID{"A", "A"}, disks: disks})
	for id, w := range wrappers {
		w.site = e.sites[id]
	}
	e.replicate(t, 3)
	e.deposit(t, "acct0", 30)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	fid := e.cluster.ReplicaSet("acct0")[1]
	errorsBefore := obsReplApplyErrors.Load()
	wrappers[fid].armed.Store(true)
	e.deposit(t, "acct0", 12)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	w := wrappers[fid]
	if w.armed.Load() {
		t.Fatal("no delivery reached the armed follower")
	}
	if w.err != nil {
		t.Fatalf("recover inside the delivery: %v", w.err)
	}
	key, ts, err := e.sites[fid].ReplicaStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	if key != "42" {
		t.Errorf("follower state = %s, want 42", key)
	}
	v, err := e.net.QueryReplicaRead("", fid, "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, ts)
	if err != nil {
		t.Fatalf("read at the follower's head %d: %v", ts, err)
	}
	if got := v.MustInt(); got != 42 {
		t.Errorf("read at the head = %d, want 42", got)
	}
	if got := obsReplApplyErrors.Load() - errorsBefore; got != 0 {
		t.Errorf("dist.repl.apply.errors rose by %d", got)
	}
	e.assertConverged(t, "acct0")
}
