package dist

import (
	"context"
	"errors"
	"math/bits"
	"slices"
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

// TestFollowerCrashAfterRecord: the second ReplApplyCrash window — after
// the delivery's record, before its install — leaves the delivery durable
// at a crashed follower. Recovery redoes it, the redelivery is redundant,
// and the follower applies the calls exactly once.
func TestFollowerCrashAfterRecord(t *testing.T) {
	// Second hit of the point, not the first: schedule [false, true]. At
	// factor two the one follower draws both hits of one delivery.
	seed := seedForSchedule(t, fault.ReplApplyCrash, 0.5, []bool{false, true})
	inj := fault.New(seed)
	e := newReplicated(t, 2, inj)
	e.deposit(t, "acct0", 40)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	f := e.sites[e.cluster.ReplicaSet("acct0")[1]]
	logged := f.Disk().Len()
	inj.Enable(fault.ReplApplyCrash, fault.Rule{Prob: 0.5, Limit: 1})
	redundant := obsReplRedundant.Load()
	e.deposit(t, "acct0", 5)
	deadline := time.Now().Add(5 * time.Second)
	for f.Up() {
		if time.Now().After(deadline) {
			t.Fatal("the follower did not crash under ReplApplyCrash window two")
		}
		time.Sleep(time.Millisecond)
	}
	recs := f.Disk().Records()
	if len(recs) != logged+1 || recs[logged].Migrate != recovery.ReplicaIn || len(recs[logged].Calls) != 1 {
		t.Fatalf("crashed follower's log grew from %d to %d records, want the delivery's one record", logged, len(recs))
	}
	e.recoverAll(t)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after recovery: %v", err)
	}
	if got := f.Disk().Len(); got != logged+1 {
		t.Errorf("follower's log holds %d records after the redelivery, want %d", got, logged+1)
	}
	if got := obsReplRedundant.Load() - redundant; got < 1 {
		t.Errorf("the redelivery was not acknowledged as redundant (%d redundant)", got)
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

// TestDownFollowerDroppedByMigrationStaysUnfollowed: a follower that is
// down when a migration drops it from the object's replica set loses its
// follow in the catalog a crash keeps. Recovery then rebuilds no copy of
// the object there, so the site does not follow it and a replica read at
// it is refused with ErrNotReplica, while the new set converges.
func TestDownFollowerDroppedByMigrationStaysUnfollowed(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B", "C", "D"}, homes: []SiteID{"A", "A"}})
	e.replicate(t, 3)
	e.deposit(t, "acct0", 40)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	// A destination whose replica set leaves out a current follower other
	// than itself.
	var dest, dropped SiteID
	old := e.cluster.ReplicaSet("acct0")
	for _, d := range []SiteID{"B", "C", "D"} {
		next := replicaFollowers(e.cluster.ring, "acct0", 3, d)
		for _, f := range old[1:] {
			if f != d && !slices.Contains(next, f) {
				dest, dropped = d, f
			}
		}
	}
	if dest == "" {
		t.Fatalf("no migration of acct0 drops a follower of %v", old)
	}
	e.sites[dropped].Crash()
	if err := e.cluster.Migrate(context.Background(), "acct0", dest); err != nil {
		t.Fatalf("migrate to %s: %v", dest, err)
	}
	if set := e.cluster.ReplicaSet("acct0"); slices.Contains(set, dropped) {
		t.Fatalf("replica set %v after the migration still holds %s", set, dropped)
	}
	if err := e.sites[dropped].Recover(); err != nil {
		t.Fatalf("recover %s: %v", dropped, err)
	}
	if e.sites[dropped].Follows("acct0") {
		t.Errorf("%s follows acct0 again after recovery", dropped)
	}
	inv := spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}
	if _, err := e.net.QueryReplicaRead("", dropped, "acct0", inv, 1<<40); !errors.Is(err, ErrNotReplica) {
		t.Errorf("replica read at dropped follower %s: err = %v, want ErrNotReplica", dropped, err)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after migration: %v", err)
	}
	e.assertConverged(t, "acct0")
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
	// A read-only deposit routed to the followers is refused, not answered
	// from a snapshot that drops its effect.
	if err := auditMgr.RunReadOnly(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(5))
		return err
	}); !errors.Is(err, cc.ErrReadOnly) {
		t.Errorf("read-only deposit through the router: err = %v, want cc.ErrReadOnly", err)
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
	n, floor := follower.replicaLocked("acct0").Len(), follower.replicaLocked("acct0").Floor()
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
// and recovers the site right after a replica delivery's record lands: the
// window between the delivery becoming durable and its version reaching the
// in-memory log.
type recoverAfterDelivery struct {
	recovery.Backend
	site  *Site
	armed atomic.Bool
	err   error
}

func (d *recoverAfterDelivery) Append(r recovery.Record) error {
	err := d.Backend.Append(r)
	if err == nil && r.Migrate == recovery.ReplicaIn && len(r.Calls) > 0 && d.armed.CompareAndSwap(true, false) {
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

// decidedEntries counts the outcomes a site's decided table holds.
func decidedEntries(s *Site) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.decided.other)
	for _, p := range s.decided.pages {
		for _, w := range p.known {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// followerDeliveries returns how many replica records each follower of the
// objects should log for n[obj] applies of each.
func (e *elastic) followerDeliveries(n map[histories.ObjectID]int) map[SiteID]int {
	want := make(map[SiteID]int)
	for obj, k := range n {
		for _, f := range e.cluster.ReplicaSet(obj)[1:] {
			want[f] += k
		}
	}
	return want
}

// TestReplicaDeliveryIsOneRecord: a follower logs exactly one record per
// applied seed or delivery — a ReplicaIn record — and its decided table
// gains no entry: a delivery is no transaction.
func TestReplicaDeliveryIsOneRecord(t *testing.T) {
	e := newElastic(t, 0, nil)
	logged := make(map[SiteID]int)
	for id, s := range e.sites {
		logged[id] = s.Disk().Len()
	}
	e.replicate(t, 3)
	grown := func(want map[SiteID]int) {
		t.Helper()
		for id, k := range want {
			recs := e.sites[id].Disk().Records()
			if len(recs) != logged[id]+k {
				t.Fatalf("follower %s logged %d records, want %d", id, len(recs)-logged[id], k)
			}
			for _, r := range recs[logged[id]:] {
				if r.Migrate != recovery.ReplicaIn {
					t.Fatalf("follower %s logged %+v, want replica records only", id, r)
				}
			}
			logged[id] = len(recs)
		}
	}
	grown(e.followerDeliveries(map[histories.ObjectID]int{"acct0": 1, "acct1": 1}))
	decided := make(map[SiteID]int)
	for id, s := range e.sites {
		decided[id] = decidedEntries(s)
	}
	for i := 0; i < 3; i++ {
		e.deposit(t, "acct0", 1)
	}
	e.deposit(t, "acct1", 1)
	e.deposit(t, "acct1", 1)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	want := e.followerDeliveries(map[histories.ObjectID]int{"acct0": 3, "acct1": 2})
	grown(want)
	for id := range want {
		if got := decidedEntries(e.sites[id]); got != decided[id] {
			t.Errorf("follower %s's decided table grew from %d to %d entries", id, decided[id], got)
		}
	}
	e.assertConverged(t, "acct0")
	e.assertConverged(t, "acct1")
}

// TestReplicaCheckpointHoldsNoDelivery: a follower's checkpoint folds every
// replica record into its snapshot and watermark: the compacted log holds
// no ReplicaIn record, the checkpoint's Decided set no delivery, and a
// recovery from it rebuilds the copy at the same head.
func TestReplicaCheckpointHoldsNoDelivery(t *testing.T) {
	e := newReplicated(t, 3, nil)
	for i := 0; i < 3; i++ {
		e.deposit(t, "acct0", 2)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	f := e.sites[e.cluster.ReplicaSet("acct0")[1]]
	key, head, err := f.ReplicaStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs := f.Disk().Records()
	if len(recs) == 0 || recs[0].Kind != recovery.RecordCheckpoint {
		t.Fatalf("compacted log %+v does not start with a checkpoint", recs)
	}
	if len(recs[0].Decided) != 0 {
		t.Errorf("checkpoint Decided = %v, want no entry", recs[0].Decided)
	}
	if got := recs[0].ReplicaTS["acct0"]; got != head {
		t.Errorf("checkpoint watermark of acct0 = %d, want the head %d", got, head)
	}
	for _, r := range recs {
		if r.Migrate == recovery.ReplicaIn {
			t.Errorf("compacted log kept replica record %+v", r)
		}
	}
	f.Crash()
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	if gotKey, gotHead, err := f.ReplicaStateKey("acct0"); err != nil || gotKey != key || gotHead != head {
		t.Errorf("recovered copy = %s at %d (%v), want %s at %d", gotKey, gotHead, err, key, head)
	}
	e.deposit(t, "acct0", 1)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	e.assertConverged(t, "acct0")
}

// TestReplicaDuplicateDeliveryAppliesOnce: a delivery handled twice — its
// request duplicated in flight, or retransmitted after its reply was lost —
// is logged and applied once; the repeat finds its stamp at the head and is
// acknowledged as redundant.
func TestReplicaDuplicateDeliveryAppliesOnce(t *testing.T) {
	t.Run("request duplicated", func(t *testing.T) {
		inj := fault.New(1)
		e := newReplicated(t, 3, inj)
		logged := make(map[SiteID]int)
		for id, s := range e.sites {
			logged[id] = s.Disk().Len()
		}
		redundant := obsReplRedundant.Load()
		inj.Enable(fault.NetRequestDup, fault.Rule{Prob: 1})
		for i := 0; i < 4; i++ {
			e.deposit(t, "acct0", 3)
		}
		if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
			t.Fatalf("replication drain: %v", err)
		}
		want := e.followerDeliveries(map[histories.ObjectID]int{"acct0": 4})
		total := 0
		for id, k := range want {
			if got := e.sites[id].Disk().Len() - logged[id]; got != k {
				t.Errorf("follower %s logged %d records for %d deliveries", id, got, k)
			}
			total += k
		}
		if got := obsReplRedundant.Load() - redundant; got < int64(total) {
			t.Errorf("%d duplicates acknowledged as redundant, want at least %d", got, total)
		}
		if got := e.balance(t, "acct0"); got != 12 {
			t.Fatalf("balance = %d, want 12", got)
		}
		e.assertConverged(t, "acct0")
	})
	t.Run("reply dropped", func(t *testing.T) {
		inj := fault.New(1)
		e := newReplicated(t, 3, inj)
		fid := e.cluster.ReplicaSet("acct0")[1]
		f := e.sites[fid]
		key, head, err := f.ReplicaStateKey("acct0")
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := e.net.epochFor("", fid)
		if err != nil {
			t.Fatal(err)
		}
		logged, redundant := f.Disk().Len(), obsReplRedundant.Load()
		inj.Enable(fault.NetReplyDrop, fault.Rule{Prob: 1, Limit: 1})
		req := replicaReq{Obj: "acct0", TS: head + 1, Calls: []spec.Call{{Inv: spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(6)}, Result: value.Unit()}}}
		_, attempt, err := callAt(e.net, "", fid, epoch, req, (*Site).handleReplica)
		if err != nil || attempt != 1 {
			t.Fatalf("delivery answered on transmission %d (%v), want the retransmission", attempt, err)
		}
		if got := f.Disk().Len() - logged; got != 1 {
			t.Errorf("follower logged %d records for one delivery", got)
		}
		if got := obsReplRedundant.Load() - redundant; got != 1 {
			t.Errorf("%d retransmissions acknowledged as redundant, want 1", got)
		}
		gotKey, gotHead, err := f.ReplicaStateKey("acct0")
		if err != nil || gotHead != head+1 || gotKey == key {
			t.Fatalf("copy after the delivery = %s at %d (%v), was %s at %d", gotKey, gotHead, err, key, head)
		}
		v, err := e.net.QueryReplicaRead("", fid, "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, head+1)
		if err != nil || v.MustInt() != 6 {
			t.Errorf("read at the new head = %v (%v), want 6", v, err)
		}
	})
}

// TestReplicaDeliveryBetweenFloorAndHeadRefused: a stamp strictly between a
// follower's floor and head that no kept version carries cannot be a repeat
// — only the head repeats, or after recovery something below the floor —
// so it is refused as out of order and counted as an apply error, while a
// stamp at the head or the floor is acknowledged as redundant. None of the
// three touches the log or the copy.
func TestReplicaDeliveryBetweenFloorAndHeadRefused(t *testing.T) {
	e := newReplicated(t, 3, nil)
	e.deposit(t, "acct0", 1)
	e.deposit(t, "acct1", 1)
	e.deposit(t, "acct0", 1)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	f := e.sites[e.cluster.ReplicaSet("acct0")[1]]
	f.mu.Lock()
	floor, head := f.replicaLocked("acct0").Floor(), f.replicaLocked("acct0").HeadTS()
	f.mu.Unlock()
	// Stamps are drawn across objects, so the acct1 deposit's stamp lies
	// between the two acct0 deliveries and no acct0 version carries it.
	between := head - 1
	if !(floor < between) {
		t.Fatalf("floor %d, head %d: no stamp strictly between", floor, head)
	}
	key, _, err := f.ReplicaStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	logged := f.Disk().Len()
	deliver := func(ts histories.Timestamp) error {
		_, err := f.handleReplica(delivery{}, replicaReq{Obj: "acct0", TS: ts,
			Calls: []spec.Call{{Inv: spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(9)}, Result: value.Unit()}}})
		return err
	}
	errs, redundant := obsReplApplyErrors.Load(), obsReplRedundant.Load()
	if err := deliver(between); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("delivery at %d between floor %d and head %d: err = %v, want out-of-order", between, floor, head, err)
	}
	if got := obsReplApplyErrors.Load() - errs; got != 1 {
		t.Errorf("dist.repl.apply.errors rose by %d, want 1", got)
	}
	for _, ts := range []histories.Timestamp{head, floor} {
		if err := deliver(ts); err != nil {
			t.Errorf("delivery at %d: %v, want acknowledged as redundant", ts, err)
		}
	}
	if got := obsReplRedundant.Load() - redundant; got != 2 {
		t.Errorf("%d deliveries acknowledged as redundant, want 2", got)
	}
	if got := f.Disk().Len(); got != logged {
		t.Errorf("follower's log grew from %d to %d records", logged, got)
	}
	if gotKey, gotHead, err := f.ReplicaStateKey("acct0"); err != nil || gotKey != key || gotHead != head {
		t.Errorf("copy = %s at %d (%v), want it untouched at %s, %d", gotKey, gotHead, err, key, head)
	}
}

// refuseSeeds is a site's stable storage that, while armed, refuses every
// replica seed; the first refusal also crashes the site.
type refuseSeeds struct {
	recovery.Backend
	site    *Site
	armed   atomic.Bool
	crashed atomic.Bool
}

func (d *refuseSeeds) Append(r recovery.Record) error {
	if r.Migrate == recovery.ReplicaIn && r.States != nil && d.armed.Load() {
		if d.crashed.CompareAndSwap(false, true) {
			d.site.Crash()
		}
		return recovery.ErrWriteFailed
	}
	return d.Backend.Append(r)
}

// TestFollowerWithoutDurableSeedServesNothing: a site whose seed never
// reached its log does not follow the object, across a crash too — it
// refuses snapshot reads rather than answer from a copy it never had —
// and follows once the retried seed lands.
func TestFollowerWithoutDurableSeedServesNothing(t *testing.T) {
	disks := map[SiteID]recovery.Backend{}
	wrappers := map[SiteID]*refuseSeeds{}
	for _, id := range []SiteID{"A", "B", "C"} {
		w := &refuseSeeds{Backend: &recovery.Disk{}}
		disks[id], wrappers[id] = w, w
	}
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B", "C"}, homes: []SiteID{"A", "A"}, disks: disks})
	for id, w := range wrappers {
		w.site = e.sites[id]
	}
	e.deposit(t, "acct0", 70)
	fid := replicaFollowers(e.cluster.ring, "acct0", 3, "A")[0]
	w := wrappers[fid]
	w.armed.Store(true)
	if err := e.cluster.EnableReplication(3); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cluster.Close)
	deadline := time.Now().Add(5 * time.Second)
	for !w.crashed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("no seed reached the armed follower")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.sites[fid].Recover(); err != nil {
		t.Fatal(err)
	}
	if e.sites[fid].Follows("acct0") {
		t.Error("the follower follows acct0 with no seed in its log")
	}
	_, err := e.net.QueryReplicaRead("", fid, "acct0", spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()}, stableStamp(e.cluster.replicator()))
	if !errors.Is(err, ErrNotReplica) {
		t.Errorf("read at a follower without a seed: err = %v, want ErrNotReplica", err)
	}
	w.armed.Store(false)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("seed drain: %v", err)
	}
	e.assertConverged(t, "acct0")
}

// stableStamp reads the replicator's stable timestamp — what a replica
// read pins at its first invocation.
func stableStamp(rep *replicator) histories.Timestamp {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.stableTSLocked()
}

// TestWarmReplicaReadAllocs pins the allocations of a warm two-object
// read-only audit routed to follower snapshots: the read router hands out
// each route's one reader, and a read copies no follower list.
func TestWarmReplicaReadAllocs(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B", "C"}, homes: []SiteID{"A", "B"}})
	e.replicate(t, 3)
	auditMgr := e.newManager(t, tx.Config{Property: tx.Dynamic, ReadRouter: e.cluster.ReadRouter()})
	audit := func() {
		if err := auditMgr.RunReadOnly(func(txn *tx.Txn) error {
			for _, obj := range []histories.ObjectID{"acct0", "acct1"} {
				if _, err := txn.Invoke(obj, adts.OpBalance, value.Nil()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		audit() // warm: epochs pinned, pin table grown
	}
	const ceiling = 4 // 4 measured; 8 before routes owned their reader
	if got := testing.AllocsPerRun(500, audit); got > ceiling {
		t.Errorf("warm two-object replica audit allocates %.0f times, want <= %d", got, ceiling)
	}
}

// TestStableStampWaitsForOldestInFlight: the stable timestamp is one below
// the oldest stamp still being delivered, not below the oldest stamp of
// whatever happened to finish last. Two deposits on objects with different
// followers: the first one's follower is down, so its delivery is held
// back, while the second, stamped later, lands at its follower. The stable
// stamp stays below the first deposit — an audit pinned there reads the
// second object without the second deposit, though its follower has it —
// until the held delivery lands, and is the clock after that.
func TestStableStampWaitsForOldestInFlight(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B", "C", "D"}, homes: []SiteID{"B", "C"}})
	e.replicate(t, 2)
	f0, f1 := e.cluster.ReplicaSet("acct0")[1], e.cluster.ReplicaSet("acct1")[1]
	if f0 != "A" || f1 != "B" {
		t.Fatalf("followers of acct0, acct1 = %s, %s; the test wants A and B", f0, f1)
	}
	rep := e.cluster.replicator()
	clock := func() histories.Timestamp {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return rep.clock
	}
	e.deposit(t, "acct1", 5)
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	e.sites[f0].Crash()
	e.deposit(t, "acct0", 10)
	first := clock()
	e.deposit(t, "acct1", 20)
	second := clock()
	if second <= first {
		t.Fatalf("stamps %d then %d, want ascending", first, second)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, head, err := e.sites[f1].ReplicaStateKey("acct1")
		rep.mu.Lock()
		pending := rep.routes["acct1"].pending
		rep.mu.Unlock()
		if err == nil && head == second && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the later deposit did not land at %s (head %d, %d pending, %v)", f1, head, pending, err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := stableStamp(rep); got != first-1 {
		t.Fatalf("stable stamp = %d with deposit %d held back and %d applied, want %d", got, first, second, first-1)
	}
	reader := e.cluster.ReadRouter()("acct1")
	audit := &cc.TxnInfo{ID: "audit-held", ReadOnly: true}
	v, err := reader.Invoke(audit, spec.Invocation{Op: adts.OpBalance, Arg: value.Nil()})
	if err != nil {
		t.Fatalf("replica read of acct1: %v", err)
	}
	reader.Commit(audit, 0)
	if v.MustInt() != 5 {
		t.Errorf("audit pinned below the held deposit reads acct1 = %d, want 5 (without the later deposit)", v.MustInt())
	}
	if err := e.sites[f0].Recover(); err != nil {
		t.Fatalf("recover %s: %v", f0, err)
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain after recovery: %v", err)
	}
	if got := stableStamp(rep); got != second || got != clock() {
		t.Errorf("stable stamp = %d once every delivery landed, want the clock %d", got, second)
	}
	e.assertConverged(t, "acct0")
	e.assertConverged(t, "acct1")
}
