package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// elastic is the test harness for the elastic cluster: sites on one
// network, a two-member coordinator pool, a placement ring, and a
// transaction manager whose resources route through the cluster's
// placement map.
type elastic struct {
	net      *Network
	pool     *Pool
	coords   []*Coordinator
	sites    map[SiteID]*Site
	objects  []histories.ObjectID
	cluster  *Cluster
	manager  *tx.Manager
	recorder *recorder
}

// elasticConfig shapes the harness.
type elasticConfig struct {
	maxDelay    time.Duration
	inj         *fault.Injector
	sites       []SiteID                    // started and joined to the ring, in order
	homes       []SiteID                    // homes[i] hosts escrow account acct<i> at start
	waitTimeout time.Duration               // every site's SiteConfig.WaitTimeout
	record      bool                        // give every site the recorder's sink
	disks       map[SiteID]recovery.Backend // a site's stable storage; default in-memory
}

// newElastic builds the harness the tests share: sites A, B, C (acct0 and
// acct1 seeded at A), every site recording into e.recorder.
func newElastic(t testing.TB, maxDelay time.Duration, inj *fault.Injector) *elastic {
	t.Helper()
	return newElasticWith(t, elasticConfig{
		maxDelay: maxDelay,
		inj:      inj,
		sites:    []SiteID{"A", "B", "C"},
		homes:    []SiteID{"A", "A"},
		record:   true,
	})
}

// newElasticWith builds the harness: the sites on one network,
// coordinators C0 and C1 pooled, every site wired to the pool, and
// cluster-routed proxies for every account registered with the manager.
func newElasticWith(tb testing.TB, cfg elasticConfig) *elastic {
	tb.Helper()
	e := &elastic{
		net:      NewNetwork(0, cfg.maxDelay, 7),
		sites:    make(map[SiteID]*Site),
		recorder: &recorder{},
	}
	e.net.SetInjector(cfg.inj)
	for _, id := range []SiteID{"C0", "C1"} {
		c, err := NewCoordinator(CoordinatorConfig{ID: id, Network: e.net})
		if err != nil {
			tb.Fatal(err)
		}
		e.coords = append(e.coords, c)
	}
	pool, err := NewPool(e.coords...)
	if err != nil {
		tb.Fatal(err)
	}
	e.pool = pool
	for _, id := range cfg.sites {
		sc := SiteConfig{
			ID:           id,
			Network:      e.net,
			Coordinators: pool.IDs(),
			WaitTimeout:  cfg.waitTimeout,
			Injector:     cfg.inj,
			Disk:         cfg.disks[id],
		}
		if cfg.record {
			sc.Sink = e.recorder.sink()
		}
		s, err := NewSite(sc)
		if err != nil {
			tb.Fatal(err)
		}
		e.sites[id] = s
	}
	for i, home := range cfg.homes {
		obj := histories.ObjectID(fmt.Sprintf("acct%d", i))
		if err := e.sites[home].AddObject(obj, adts.Account(), escrowGuard); err != nil {
			tb.Fatal(err)
		}
		e.objects = append(e.objects, obj)
	}
	e.cluster = NewCluster(e.net, pool, 0, cfg.inj)
	for _, id := range cfg.sites {
		if err := e.cluster.Join(id); err != nil {
			tb.Fatal(err)
		}
	}
	e.manager = e.newManager(tb, tx.Config{Property: tx.Dynamic})
	return e
}

// newManager builds a transaction manager over the pool with every
// account's cluster-routed proxy registered.
func (e *elastic) newManager(tb testing.TB, cfg tx.Config) *tx.Manager {
	tb.Helper()
	cfg.Coordinator = e.pool
	m, err := tx.NewManager(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, obj := range e.objects {
		if err := m.Register(e.cluster.Resource(obj, "")); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

func (e *elastic) deposit(t testing.TB, obj histories.ObjectID, amount int64) {
	t.Helper()
	if err := e.manager.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke(obj, adts.OpDeposit, value.Int(amount))
		return err
	}); err != nil {
		t.Fatalf("deposit %d into %s: %v", amount, obj, err)
	}
}

func (e *elastic) balance(t *testing.T, obj histories.ObjectID) int64 {
	t.Helper()
	var out int64
	if err := e.manager.Run(func(txn *tx.Txn) error {
		v, err := txn.Invoke(obj, adts.OpBalance, value.Nil())
		if err != nil {
			return err
		}
		out = v.MustInt()
		return nil
	}); err != nil {
		t.Fatalf("balance %s: %v", obj, err)
	}
	return out
}

// recoverAll brings every crashed site and coordinator back, retrying a
// recovery that is still in doubt (ResolveInDoubt at the peers can unblock
// it between attempts).
func (e *elastic) recoverAll(t *testing.T) {
	t.Helper()
	for _, c := range e.coords {
		if !c.Up() {
			if err := c.Recover(); err != nil {
				t.Fatalf("recover coordinator %s: %v", c.ID(), err)
			}
		}
	}
	for attempt := 0; attempt < 50; attempt++ {
		pending := false
		for _, s := range e.sites {
			if s.Up() {
				continue
			}
			if err := s.Recover(); err != nil {
				if errors.Is(err, ErrStillInDoubt) {
					pending = true
					continue
				}
				t.Fatalf("recover site %s: %v", s.ID(), err)
			}
		}
		if !pending {
			return
		}
		for _, s := range e.sites {
			if s.Up() {
				s.ResolveInDoubt(0)
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("sites still in doubt after 50 recovery attempts")
}

// sweep reclaims abandoned transaction state (leaked migration freezes and
// staged copies among it) and resolves lingering in-doubt transactions at
// every running site — the jobs the background sweeper does in a real
// deployment.
func (e *elastic) sweep() {
	for _, s := range e.sites {
		if s.Up() {
			s.AbortAbandoned(0)
			s.ResolveInDoubt(0)
		}
	}
}

// assertSinglyHomed fails the test unless exactly one site hosts obj.
func (e *elastic) assertSinglyHomed(t *testing.T, obj histories.ObjectID) {
	t.Helper()
	var homes []SiteID
	for id, s := range e.sites {
		if hosted, _ := s.hostsObject(obj); hosted {
			homes = append(homes, id)
		}
	}
	if len(homes) != 1 {
		t.Fatalf("object %s hosted by %d sites %v, want exactly one", obj, len(homes), homes)
	}
}

// TestClusterMigrateMovesObject: a shard migration moves an object between
// sites with its committed state intact, placement follows the commit, and
// transactions keep executing against the new home.
func TestClusterMigrateMovesObject(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 70)
	keyBefore, err := e.sites["A"].CommittedStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if home, _ := e.cluster.HomeOf("acct0"); home != "B" {
		t.Fatalf("home of acct0 = %s, want B", home)
	}
	e.assertSinglyHomed(t, "acct0")
	keyAfter, err := e.sites["B"].CommittedStateKey("acct0")
	if err != nil {
		t.Fatal(err)
	}
	if keyBefore != keyAfter {
		t.Errorf("committed state changed across migration: %q -> %q", keyBefore, keyAfter)
	}
	if got := e.balance(t, "acct0"); got != 70 {
		t.Errorf("balance after migration = %d, want 70", got)
	}
	// Transactions at the new home still form an atomic history.
	e.deposit(t, "acct0", 5)
	if got := e.balance(t, "acct0"); got != 75 {
		t.Errorf("balance after post-migration deposit = %d, want 75", got)
	}
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	if err := ck.DynamicAtomic(e.recorder.history()); err != nil {
		t.Errorf("history not dynamic atomic across migration: %v", err)
	}
}

// TestSiteOnFileWALTakesMigratedObject is the fence around a known hole,
// not a passing test: a site on a recovery.FileWAL cannot take in an object
// it did not host when its log was opened. The destination's migrate-in
// vote forces an intentions record carrying the object's committed state,
// and FileWAL encodes a state only for objects named in
// FileWALOptions.Specs at open, so the vote fails and the move with it. A
// follower's replica seed record hits the same wall. The cure is a state
// codec the log can resolve per record (by type, not by object name).
func TestSiteOnFileWALTakesMigratedObject(t *testing.T) {
	t.Skip("known hole: FileWAL encodes states only for objects named in FileWALOptions.Specs at open, so a migrate-in (or replica seed) record for a newly arriving object cannot be logged")
	disks := map[SiteID]recovery.Backend{}
	for id, obj := range map[SiteID]histories.ObjectID{"A": "acct0", "B": "acct1"} {
		w, err := recovery.OpenFileWAL(recovery.FileWALOptions{
			Dir:   t.TempDir(),
			Specs: map[histories.ObjectID]spec.SerialSpec{obj: adts.AccountSpec{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		disks[id] = w
	}
	e := newElasticWith(t, elasticConfig{
		sites: []SiteID{"A", "B"},
		homes: []SiteID{"A", "B"},
		disks: disks,
	})
	e.deposit(t, "acct0", 70)
	if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
		t.Fatalf("migrate onto a FileWAL site: %v", err)
	}
	e.sites["B"].Crash()
	e.recoverAll(t)
	if home, _ := e.cluster.HomeOf("acct0"); home != "B" {
		t.Errorf("home of acct0 after restart = %s, want B", home)
	}
	if got := e.balance(t, "acct0"); got != 70 {
		t.Errorf("balance after migration and restart = %d, want 70", got)
	}
}

// TestStaleRouteRefusedNotReExecuted: an operation retransmitted to an
// object's old home after a migration is refused with ErrMoved — not
// executed there — and the object's state is untouched. This is the
// exactly-once guarantee for routed messages that straddle a move.
func TestStaleRouteRefusedNotReExecuted(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 40)
	// A client routed to A under the pre-migration placement view.
	stale := newRemoteResourceRouted(e.net, "", "A", "acct0", e.cluster.PlaceVersion())
	if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// The stale client retransmits its deposit to the old home.
	txn := &cc.TxnInfo{ID: "stale-route", Participants: []string{"A"}}
	_, err := stale.Invoke(txn, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(99)})
	if err == nil {
		t.Fatal("stale-routed invoke executed at the old home")
	}
	if !errors.Is(err, cc.ErrMoved) {
		t.Fatalf("stale-routed invoke error = %v, want ErrMoved", err)
	}
	if !cc.Retryable(err) {
		t.Errorf("ErrMoved must be retryable (the retry re-routes): %v", err)
	}
	stale.Abort(txn)
	// Not re-executed anywhere: the balance is what it was.
	if got := e.balance(t, "acct0"); got != 40 {
		t.Errorf("balance after refused stale route = %d, want 40", got)
	}
	// A fresh transaction routed from current placement succeeds.
	e.deposit(t, "acct0", 99)
	if got := e.balance(t, "acct0"); got != 139 {
		t.Errorf("balance after re-routed deposit = %d, want 139", got)
	}
}

// TestStaleRouteRefusedAfterRestart: the moved-object refusal survives the
// new home's crash — homedAt is re-derived from the logged migrate-in
// record, so a route older than the migration is still refused after
// restart.
func TestStaleRouteRefusedAfterRestart(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 25)
	staleRV := e.cluster.PlaceVersion()
	if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	e.sites["B"].Crash()
	e.recoverAll(t)
	txn := &cc.TxnInfo{ID: "stale-after-restart", Participants: []string{"B"}}
	stale := newRemoteResourceRouted(e.net, "", "B", "acct0", staleRV)
	if _, err := stale.Invoke(txn, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(7)}); !errors.Is(err, cc.ErrMoved) {
		t.Fatalf("pre-migration route to restarted new home: err = %v, want ErrMoved", err)
	}
	stale.Abort(txn)
	if got := e.balance(t, "acct0"); got != 25 {
		t.Errorf("balance = %d, want 25", got)
	}
}

// seedForSchedule searches for an injector seed whose deterministic fault
// schedule for point matches want exactly (Schedule previews the decision
// function without consuming hits), so a test can arm a later crash window
// of a multi-window fault point.
func seedForSchedule(t *testing.T, point fault.Point, prob float64, want []bool) int64 {
	t.Helper()
	for seed := int64(1); seed < 100000; seed++ {
		inj := fault.New(seed)
		inj.Enable(point, fault.Rule{Prob: prob})
		sched := inj.Schedule(point, len(want))
		match := true
		for i := range want {
			if sched[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return seed
		}
	}
	t.Fatalf("no seed under 100000 yields schedule %v for %s at prob %v", want, point, prob)
	return 0
}

// TestMigrationCrashWindowSweep is the elastic cluster's acceptance
// criterion: a site crash (or partition) at every fault window of a shard
// migration leaves every object singly-homed with its value conserved,
// and once the sites recover the move completes cleanly.
//
// The windows: fault.MigrateCrashSource (source crashes after forcing its
// migrate-out vote), fault.MigrateCrashDest (destination crashes after
// forcing its migrate-in vote), fault.MigrateCrashCommit at each of its
// four hits (before/after the commit record, at source then destination —
// selected by seed-searched schedules), and fault.MigratePartition (the
// network splits between copy and commit).
func TestMigrationCrashWindowSweep(t *testing.T) {
	cases := []struct {
		name  string
		point fault.Point
		sched []bool // nil: fire the first hit
	}{
		{"source-vote-crash", fault.MigrateCrashSource, nil},
		{"dest-vote-crash", fault.MigrateCrashDest, nil},
		{"commit-crash-src-before-log", fault.MigrateCrashCommit, []bool{true}},
		{"commit-crash-src-after-log", fault.MigrateCrashCommit, []bool{false, true}},
		{"commit-crash-dst-before-log", fault.MigrateCrashCommit, []bool{false, false, true}},
		{"commit-crash-dst-after-log", fault.MigrateCrashCommit, []bool{false, false, false, true}},
		{"partition-mid-migration", fault.MigratePartition, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, seed := 1.0, int64(1)
			if tc.sched != nil {
				prob = 0.5
				seed = seedForSchedule(t, tc.point, prob, tc.sched)
			}
			inj := fault.New(seed)
			e := newElastic(t, 0, inj)
			e.deposit(t, "acct0", 70)
			// Armed after seeding; the migrate.* points are only hit by
			// migration handlers, so ordering is belt and braces.
			inj.Enable(tc.point, fault.Rule{Prob: prob, Limit: 1})

			// The wounded attempt: it may succeed (crash after the commit
			// point), abort and retry into a downed site, or exhaust its
			// retries. All are acceptable — the invariants below are not
			// allowed to depend on which.
			migErr := e.cluster.Migrate(context.Background(), "acct0", "B")

			e.recoverAll(t)
			e.sweep()
			if err := e.cluster.Reconcile(""); err != nil {
				t.Fatalf("reconcile after %s: %v", tc.name, err)
			}
			e.assertSinglyHomed(t, "acct0")
			if got := e.balance(t, "acct0"); got != 70 {
				t.Fatalf("balance after %s = %d, want 70 (value not conserved)", tc.name, got)
			}

			// Whatever the wounded attempt decided, a clean retry must land
			// the object at the destination with its state intact.
			if home, _ := e.cluster.HomeOf("acct0"); home != "B" {
				if migErr == nil {
					t.Errorf("migration reported success but %s still hosts acct0", home)
				}
				if err := e.cluster.Migrate(context.Background(), "acct0", "B"); err != nil {
					t.Fatalf("clean re-migration after %s: %v", tc.name, err)
				}
			}
			e.assertSinglyHomed(t, "acct0")
			if home, _ := e.cluster.HomeOf("acct0"); home != "B" {
				t.Fatalf("home of acct0 = %s, want B", home)
			}
			if got := e.balance(t, "acct0"); got != 70 {
				t.Errorf("balance after completed migration = %d, want 70", got)
			}
			ck := core.NewChecker()
			ck.Register("acct0", adts.AccountSpec{})
			ck.Register("acct1", adts.AccountSpec{})
			if err := ck.DynamicAtomic(e.recorder.history()); err != nil {
				t.Errorf("history not dynamic atomic after %s: %v", tc.name, err)
			}
		})
	}
}

// TestCompactedPoolResolvesInDoubt: a coordinator pool member whose
// decision log has been checkpoint-compacted — and then crashed and
// recovered from that compacted log — still resolves an in-doubt
// participant to the committed outcome. Compaction must not launder a
// decision out of existence, or presumed abort would mis-resolve it.
func TestCompactedPoolResolvesInDoubt(t *testing.T) {
	inj := fault.New(3)
	e := newElastic(t, 0, inj)
	e.deposit(t, "acct0", 50)
	// One participant crashes on receiving the commit decision, before
	// logging it: the transfer is decided commit but in doubt at that site.
	inj.Enable(fault.SiteCrashCommitBeforeLog, fault.Rule{Prob: 1, Limit: 1})
	if err := e.manager.Run(func(txn *tx.Txn) error {
		if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(10)); err != nil {
			return err
		}
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(10))
		return err
	}); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	crashed := 0
	for _, s := range e.sites {
		if !s.Up() {
			crashed++
		}
	}
	if crashed != 1 {
		t.Fatalf("%d sites down after commit-window crash, want 1", crashed)
	}
	// Compact every pool member's decision log, then crash and recover them
	// so the only record of the decision is the checkpoint itself.
	if _, err := e.pool.Checkpoint(); err != nil {
		t.Fatalf("pool checkpoint: %v", err)
	}
	for _, c := range e.coords {
		c.Crash()
	}
	// The in-doubt participant must resolve to commit against the
	// compacted, restarted pool.
	e.recoverAll(t)
	b0, b1 := e.balance(t, "acct0"), e.balance(t, "acct1")
	if b0 != 40 || b1 != 10 {
		t.Errorf("balances %d/%d after compacted-pool resolution, want 40/10", b0, b1)
	}
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	if err := ck.DynamicAtomic(e.recorder.history()); err != nil {
		t.Errorf("history not dynamic atomic: %v", err)
	}
}

// TestJoinRebalanceLeaveDrains: membership drives placement — after a
// leave, rebalancing drains every object off the departed site onto the
// remaining members, conserving state, and the drained site refuses
// further operations on the moved objects.
func TestJoinRebalanceLeaveDrains(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 30)
	e.deposit(t, "acct1", 12)
	ctx := context.Background()
	// Align placement with the ring, then drain A.
	if err := e.cluster.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if err := e.cluster.Leave("A"); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Rebalance(ctx); err != nil {
		t.Fatalf("drain rebalance: %v", err)
	}
	if hosted := e.sites["A"].HostedObjects(); len(hosted) != 0 {
		t.Fatalf("departed site A still hosts %v", hosted)
	}
	for _, obj := range []histories.ObjectID{"acct0", "acct1"} {
		e.assertSinglyHomed(t, obj)
		home, ok := e.cluster.HomeOf(obj)
		if !ok || home == "A" {
			t.Errorf("home of %s = %s after drain", obj, home)
		}
	}
	if got := e.balance(t, "acct0"); got != 30 {
		t.Errorf("acct0 = %d after drain, want 30", got)
	}
	if got := e.balance(t, "acct1"); got != 12 {
		t.Errorf("acct1 = %d after drain, want 12", got)
	}
	// Cross-shard transfers still commit on the shrunken cluster.
	if err := e.manager.Run(func(txn *tx.Txn) error {
		if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(5)); err != nil {
			return err
		}
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(5))
		return err
	}); err != nil {
		t.Fatalf("post-drain transfer: %v", err)
	}
	if b0, b1 := e.balance(t, "acct0"), e.balance(t, "acct1"); b0+b1 != 42 {
		t.Errorf("total %d after transfer, want 42", b0+b1)
	}
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	if err := ck.DynamicAtomic(e.recorder.history()); err != nil {
		t.Errorf("history not dynamic atomic: %v", err)
	}
}

// TestMigrationRefusedWhileObjectBusy: an object with live invocations
// cannot be frozen out from under its transaction — the migration is
// refused retryably and succeeds once the transaction finishes.
func TestMigrationRefusedWhileObjectBusy(t *testing.T) {
	e := newElastic(t, 0, nil)
	e.deposit(t, "acct0", 10)
	txn := e.manager.Begin()
	if _, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1)); err != nil {
		t.Fatal(err)
	}
	// The export must refuse the freeze while the transaction is live.
	mig := &cc.TxnInfo{ID: "M-busy:acct0", Participants: []string{"A", "B"}}
	if _, err := e.sites["A"].handleMigrateExport(fresh(e.sites["A"]), "acct0", mig); !errors.Is(err, ErrMigrating) {
		t.Fatalf("export of busy object: err = %v, want ErrMigrating", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit of the transaction holding the object: %v", err)
	}
	e.sweep() // reclaim the refused migration's registration
	if err := e.cluster.Migrate(context.Background(), "acct0", "C"); err != nil {
		t.Fatalf("migrate after the transaction finished: %v", err)
	}
	if got := e.balance(t, "acct0"); got != 11 {
		t.Errorf("balance = %d, want 11", got)
	}
}
