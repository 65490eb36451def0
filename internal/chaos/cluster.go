package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// runCluster is the dynamic-atomicity run, one for every distributed mode:
// build the mode's topology, start the drivers, seed, arm the coordinator
// crash windows, run the transfers beside the drivers, quiesce, and check
// the oracle suite — restart replay at each object's current home,
// conservation and the checker everywhere, single-homing on a cluster,
// audit atomicity and convergence under replication (DESIGN §7).
func runCluster(ctx context.Context, cfg Config, inj *fault.Injector) (*Report, error) {
	newTopology := distTopology
	switch {
	case cfg.Replication:
		newTopology = replicationTopology
	case cfg.Churn:
		newTopology = churnTopology
	}
	rec := &recorder{}
	t, err := newTopology(cfg, inj, rec.sink())
	if err != nil {
		return nil, err
	}
	if t.cluster != nil {
		defer t.cluster.Close() // stops the replication delivery workers
	}
	rep := &Report{Property: cfg.Property, Seed: cfg.Seed}
	// Baseline seeds must land before any traffic: every follower starts
	// from its leader's committed state.
	if err := t.idle(5 * time.Second); err != nil {
		return rep, fmt.Errorf("chaos: replication baseline seed: %w", err)
	}

	d := t.startDrivers(ctx, cfg, inj)
	workErr := seedWorkload(ctx, cfg, t.m)
	if workErr == nil && !cfg.Replication {
		// Armed only after the seed deposit commits: see injector(). Never
		// under replication: an orphaned commit (decision durable at the
		// coordinator, client unsure) finishes at its leader without
		// shipping its follower deliveries, a documented divergence hazard
		// of the asynchronous path (DESIGN §14), not a bug to trip over.
		inj.Enable(fault.CoordCrashBeforeLog, fault.Rule{Prob: cfg.CoordCrashProb})
		inj.Enable(fault.CoordCrashAfterLog, fault.Rule{Prob: cfg.CoordCrashProb})
	}
	if workErr == nil {
		// The seed deposit's deliveries must apply before audits start:
		// until then the stable snapshot legitimately predates the seed and
		// the conservation sum would read zero.
		if err := t.idle(5 * time.Second); err != nil {
			workErr = fmt.Errorf("chaos: replication seed drain: %w", err)
		}
	}
	if workErr == nil {
		if cfg.Replication {
			d.audit(t.m, cfg.total())
		}
		workErr = runTransfers(ctx, cfg, t.m)
	}
	d.stop()
	rep.Commits, rep.Aborts = t.m.Stats()
	rep.Audits = d.audits.Load()
	rep.Crashes = t.crashes()

	if err := t.quiesce(inj); err != nil {
		return rep, err
	}
	// The convergence point: every queued delivery applied.
	drainErr := t.idle(10 * time.Second)
	if drainErr != nil {
		drainErr = fmt.Errorf("chaos: final replication drain: %w", drainErr)
	}
	checkErr := rep.check(rec.history())
	// Single-homing: re-derive placement from the sites themselves.
	// Reconcile fails if any object is hosted by zero or two sites — the
	// invariant every crash window of a migration must preserve.
	if t.cluster != nil {
		if err := t.cluster.Reconcile(""); err != nil {
			return rep, fmt.Errorf("chaos: single-homing: %w", err)
		}
	}
	var convErr error
	if cfg.Replication {
		convErr = t.converged("after drain")
	}
	keys, replayErr := t.replay()
	if keys == nil {
		return rep, replayErr
	}
	if cfg.Replication && convErr == nil {
		convErr = t.converged("after restart")
	}
	rep.Converged = cfg.Replication && convErr == nil
	var balances []int64
	for _, obj := range accounts {
		b, err := balance(keys[obj])
		if err != nil {
			return rep, err
		}
		balances = append(balances, b)
	}
	consErr := rep.conserve(cfg.total(), balances)
	return rep, firstError(workErr, drainErr, d.auditErr, convErr, replayErr, consErr, checkErr)
}

// drivers are the background goroutines that run beside the workload
// until stop.
type drivers struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// audits counts completed snapshot audits; auditErr is the first audit
	// that saw a non-conserved total (read after stop).
	audits   atomic.Int64
	mu       sync.Mutex
	auditErr error
}

// goDriver runs fn on its own goroutine until it returns.
func (d *drivers) goDriver(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

// every runs fn once per period until stop.
func (d *drivers) every(period time.Duration, fn func()) {
	d.goDriver(func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-d.ctx.Done():
				return
			case <-tick.C:
				fn()
			}
		}
	})
}

// stop cancels every driver, an in-flight audit included, and waits for
// them to exit. An audit must not outlive the recoverer: a read stuck on a
// crashed follower nobody revives anymore would retry until ctx expires.
func (d *drivers) stop() {
	d.cancel()
	d.wg.Wait()
}

// startDrivers starts the mode's background drivers: the recoverer, the
// partition driver, the churn driver and the checkpointer, each when its
// fault class is armed.
func (t *topology) startDrivers(ctx context.Context, cfg Config, inj *fault.Injector) *drivers {
	d := &drivers{}
	d.ctx, d.cancel = context.WithCancel(ctx)
	if cfg.recovers() {
		d.every(recoverEvery, func() {
			for _, c := range t.coords {
				if !c.Up() {
					_ = c.Recover()
				}
			}
			for _, s := range t.net.Sites() {
				if !s.Up() {
					// ErrStillInDoubt (coordinator down or partitioned,
					// peers silent) is retried on the next tick.
					_ = s.Recover()
				} else {
					s.ResolveInDoubt(2 * time.Millisecond)
					// Reclaim locks of unprepared transactions whose
					// client-side abort never arrived (partitioned away or
					// retransmissions exhausted), and migration freezes and
					// staged copies a dead migration driver leaked; nothing
					// else ever visits them. Live clients finish in well
					// under the idle threshold.
					s.AbortAbandoned(25 * time.Millisecond)
				}
			}
			if cfg.Churn {
				// Re-derive placement after an orphaned migration left the
				// map stale. Best-effort mid-run — it refuses to adopt
				// anything while a migration is between its two commit
				// halves — and authoritative only at the final check.
				_ = t.cluster.Reconcile("")
			}
		})
	}
	if len(t.splits) > 0 {
		next := 0
		d.every(partitionEvery, func() {
			if !inj.Fires(t.partition) {
				return
			}
			t.net.Partition(t.splits[next%len(t.splits)]...)
			next++
			select {
			case <-d.ctx.Done():
			case <-time.After(partitionWindow):
			}
			t.net.Heal()
		})
	}
	if cfg.Churn {
		t.churn(ctx, d, inj)
	}
	if cfg.CheckpointEvery > 0 {
		d.every(cfg.CheckpointEvery, func() {
			for _, s := range t.net.Sites() {
				if s.Up() {
					_, _ = s.Checkpoint()
				}
			}
			for _, c := range t.coords {
				if c.Up() {
					_, _ = c.Checkpoint()
				}
			}
		})
	}
	return d
}

// churn starts the churn driver: on its cadence it consults
// fault.ClusterChurn and, when it fires, takes the next membership action.
// Failures are expected (the move raced a crash window, the object was
// busy, the run is ending) and retried implicitly by later actions; the
// oracles only care that no action ever breaks single-homing or
// conservation.
func (t *topology) churn(ctx context.Context, d *drivers, inj *fault.Injector) {
	step, dIn := 0, false
	d.every(churnEvery, func() {
		if !inj.Fires(fault.ClusterChurn) {
			return
		}
		actx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		switch step % 3 {
		case 0: // targeted shard move to the next ring member
			obj := objects[step%len(objects)]
			members := t.cluster.Members()
			if home, ok := t.cluster.HomeOf(obj); ok && len(members) > 1 {
				dest := members[0]
				for i, s := range members {
					if s == home {
						dest = members[(i+1)%len(members)]
						break
					}
				}
				_ = t.cluster.Migrate(actx, obj, dest)
			}
		case 1: // membership churn: D joins, later leaves
			if dIn {
				_ = t.cluster.Leave("D")
			} else {
				_ = t.cluster.Join("D")
			}
			dIn = !dIn
		case 2: // align placement with the ring
			_ = t.cluster.Rebalance(actx)
		}
		step++
	})
}

// audit starts the snapshot-audit workers: continuous two-account
// read-only audits at the followers. A failed audit (replica lag after a
// follower restart, route churn, the run ending) is the runtime's to retry
// and no verdict; one that completes must see the seeded total — a
// transaction observed everywhere or nowhere, never half-replicated.
func (d *drivers) audit(m *tx.Manager, total int64) {
	for w := 0; w < auditWorkers; w++ {
		d.goDriver(func() {
			for d.ctx.Err() == nil {
				var b0, b1 int64
				if err := m.RunReadOnlyCtx(d.ctx, func(txn *tx.Txn) error {
					v0, err := txn.Invoke("acct0", adts.OpBalance, value.Nil())
					if err != nil {
						return err
					}
					v1, err := txn.Invoke("acct1", adts.OpBalance, value.Nil())
					if err != nil {
						return err
					}
					b0, b1 = v0.MustInt(), v1.MustInt()
					return nil
				}); err != nil {
					continue
				}
				d.audits.Add(1)
				if b0+b1 != total {
					d.mu.Lock()
					if d.auditErr == nil {
						d.auditErr = fmt.Errorf("chaos: audit snapshot not atomic: acct0=%d acct1=%d sum=%d, want %d",
							b0, b1, b0+b1, total)
					}
					d.mu.Unlock()
				}
				time.Sleep(50 * time.Microsecond)
			}
		})
	}
}

// quiesce brings the run to a checkable state once the drivers stopped:
// heal the network and detach the message faults (their damage is done),
// then bring every node up and resolve every in-doubt transaction — client
// and migration alike — through the termination protocol. The replica
// fault points are disarmed explicitly: detaching the network injector
// does not cover them (the delivery path consults the cluster's and the
// sites' own injector), and a follower crashing mid-apply with the
// recoverer stopped would stall the final drain forever.
func (t *topology) quiesce(inj *fault.Injector) error {
	t.net.Heal()
	t.net.SetInjector(nil)
	for _, p := range []fault.Point{fault.ReplDeliverDrop, fault.ReplApplyCrash, fault.ReplPartition} {
		inj.Enable(p, fault.Rule{})
	}
	for _, c := range t.coords {
		if !c.Up() {
			if err := c.Recover(); err != nil {
				return fmt.Errorf("chaos: final coordinator recovery %s: %w", c.ID(), err)
			}
		}
	}
	var last error
	for round := 0; ; round++ {
		allUp, pending := true, 0
		for _, s := range t.net.Sites() {
			if !s.Up() {
				if err := s.Recover(); err != nil {
					allUp = false
					last = fmt.Errorf("site %s: %w", s.ID(), err)
					continue
				}
			}
			s.ResolveInDoubt(0)
			// Every worker has exited, so any still-unprepared invoker is
			// abandoned by definition.
			s.AbortAbandoned(0)
			pending += s.PendingInDoubt()
		}
		if allUp && pending == 0 {
			return nil
		}
		if round >= 200 {
			return fmt.Errorf("chaos: final recovery did not quiesce: allUp=%v pending=%d last=%v", allUp, pending, last)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stateKeys reads every object's committed state key at its current home.
func (t *topology) stateKeys() (map[histories.ObjectID]string, error) {
	keys := make(map[histories.ObjectID]string)
	for _, obj := range objects {
		home, ok := t.homeOf(obj)
		if !ok {
			return nil, fmt.Errorf("chaos: object %s untracked", obj)
		}
		key, err := t.sites[home].CommittedStateKey(obj)
		if err != nil {
			return nil, err
		}
		keys[obj] = key
	}
	return keys, nil
}

// replay is the restart-replay oracle: it crashes every site and recovers
// it, so each object's committed state at its current home must come back
// from the write-ahead log alone — checkpoint plus suffix after
// compaction, hosting adopted through migrate-in records, follower copies
// through ReplicaIn records — never from surviving volatile state. It
// returns the replayed keys and the first mismatch; nil keys mean the
// oracle could not finish.
func (t *topology) replay() (map[histories.ObjectID]string, error) {
	before, err := t.stateKeys()
	if err != nil {
		return nil, err
	}
	for _, s := range t.net.Sites() {
		s.Crash()
	}
	for _, s := range t.net.Sites() {
		if err := s.Recover(); err != nil {
			return nil, fmt.Errorf("chaos: restart oracle recovering %s: %w", s.ID(), err)
		}
	}
	after, err := t.stateKeys()
	if err != nil {
		return nil, err
	}
	for _, obj := range objects {
		if after[obj] != before[obj] {
			return after, fmt.Errorf("chaos: restart replay of %s = %q, live committed = %q", obj, after[obj], before[obj])
		}
	}
	return after, nil
}

// converged is the convergence oracle: every follower's newest replica
// state equals its leader's committed state, for every object.
func (t *topology) converged(when string) error {
	for _, obj := range objects {
		set := t.cluster.ReplicaSet(obj)
		if len(set) != replicationFactor {
			return fmt.Errorf("chaos: replica set of %s = %v, want %d members (%s)", obj, set, replicationFactor, when)
		}
		leaderKey, err := t.sites[set[0]].CommittedStateKey(obj)
		if err != nil {
			return fmt.Errorf("chaos: leader state of %s (%s): %w", obj, when, err)
		}
		for _, f := range set[1:] {
			key, _, err := t.sites[f].ReplicaStateKey(obj)
			if err != nil {
				return fmt.Errorf("chaos: replica state of %s at %s (%s): %w", obj, f, when, err)
			}
			if key != leaderKey {
				return fmt.Errorf("chaos: replica %s of %s diverged (%s): %q, leader has %q", f, obj, when, key, leaderKey)
			}
		}
	}
	return nil
}

// crashes counts the crashes of every site and coordinator so far.
func (t *topology) crashes() int64 {
	var n int64
	for _, s := range t.net.Sites() {
		n += s.Crashes()
	}
	for _, c := range t.coords {
		n += c.Crashes()
	}
	return n
}

// idle waits until every queued replica delivery has applied; a no-op
// without replication.
func (t *topology) idle(timeout time.Duration) error {
	if t.cluster == nil {
		return nil
	}
	return t.cluster.ReplicationIdle(timeout)
}
