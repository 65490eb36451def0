// Package chaos is the randomized fault-injection harness: it runs
// bank/queue workloads against a full system — distributed two-site
// two-phase commit for dynamic atomicity, write-ahead-logged local systems
// for static and hybrid atomicity — while a seeded fault.Injector drops,
// duplicates and delays messages, tears and fails log writes, and crashes
// sites inside the commit protocol. A recoverer brings crashed sites back
// up mid-run.
//
// The oracle is the paper's own theory: after the run the recorded event
// history must satisfy the configured local atomicity property (the exact
// Checker from internal/core), money must be conserved across the escrow
// accounts, and — where intentions are logged — recovery.Restart replayed
// over the log alone must reproduce the live committed balances. Faults
// are decided purely by (seed, point, hit), so a failing run is replayed
// exactly by rerunning its seed.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/conflict"
	"weihl83/internal/core"
	"weihl83/internal/dist"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/sim"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// Config parameterises a chaos run. The zero value is invalid: Property is
// required; everything else defaults via fill.
type Config struct {
	// Property selects the system under test: Dynamic runs a two-site
	// distributed cluster, Static and Hybrid run local write-ahead-logged
	// systems.
	Property tx.Property
	// Seed pins the fault schedule and all workload randomness.
	Seed int64
	// Workers and Txns size the workload: Workers concurrent clients, each
	// committing Txns transfer transactions (defaults 3 and 3). Keep
	// Workers·Txns small: the dynamic-atomicity checker is exponential in
	// the number of committed activities.
	Txns    int
	Workers int
	// Message-layer fault probabilities (dynamic only).
	DropProb, DupProb, ReplyDropProb, DelayProb float64
	// Delay is the injected extra latency when DelayProb fires.
	Delay time.Duration
	// Stable-storage fault probabilities.
	TornProb, FailProb float64
	// Site-crash window probabilities (dynamic only): crash during prepare
	// after forcing the vote, crash on commit before logging it, crash
	// after logging but before installing.
	CrashPrepareProb, CrashCommitProb float64
	// CoordCrashProb arms the coordinator's crash windows around the
	// decision force (dynamic only; enabled after seeding, so the seed
	// deposit cannot be orphaned and retried into a double deposit).
	CoordCrashProb float64
	// PartitionProb arms the partition driver: every PartitionEvery it
	// consults fault.NetPartition and, when it fires, splits the network
	// into rotating groups for PartitionWindow, then heals (dynamic only;
	// started after seeding).
	PartitionProb   float64
	PartitionEvery  time.Duration
	PartitionWindow time.Duration
	// CheckpointEvery, when positive, checkpoints every up site's (and the
	// coordinator's) write-ahead log on that cadence, compacting it
	// mid-run (dynamic only).
	CheckpointEvery time.Duration
	// RecoverEvery is the recoverer's cadence for bringing crashed sites
	// (and the coordinator) back up and running the in-doubt resolver at
	// up sites (default 200µs; dynamic only). Zero disables the recoverer
	// — only safe when no crash or partition faults are enabled.
	RecoverEvery time.Duration
	// Churn selects the elastic-cluster mode for dynamic runs: four sites
	// behind a placement ring, a two-member coordinator pool, and a churn
	// driver taking membership actions (targeted moves, join/leave,
	// rebalance) while the workload runs. See runChurn.
	Churn bool
	// ChurnProb arms fault.ClusterChurn: the churn driver consults it
	// every ChurnEvery (default 300µs) and acts when it fires.
	ChurnProb  float64
	ChurnEvery time.Duration
	// MigrateCrashProb arms the shard-migration crash windows
	// (fault.MigrateCrashSource, fault.MigrateCrashDest,
	// fault.MigrateCrashCommit) at every site.
	MigrateCrashProb float64
	// MigratePartitionProb arms fault.MigratePartition: the network splits
	// between a migration's copy and its commit, isolating one half.
	MigratePartitionProb float64
	// Replication selects the replica-group mode for dynamic runs: four
	// sites, every object replicated at ReplicationFactor, commuting
	// operations streaming to followers without locks or 2PC, snapshot
	// audits reading at any follower. See runReplication.
	Replication bool
	// ReplicationFactor is the replica-set size per object (default 3).
	ReplicationFactor int
	// ReplicaDropProb arms fault.ReplDeliverDrop: follower deliveries are
	// dropped in flight and retried by the replicator's queues.
	ReplicaDropProb float64
	// ReplicaCrashProb arms fault.ReplApplyCrash: the follower crashes
	// inside the apply windows (after logging the delivery, before or after
	// committing it), forcing redelivery against a recovered replica.
	ReplicaCrashProb float64
	// ReplicaPartitionProb arms fault.ReplPartition: the partition driver
	// consults it on the PartitionEvery cadence and, when it fires, splits
	// one site from the rest for PartitionWindow.
	ReplicaPartitionProb float64
	// AuditWorkers is the number of concurrent snapshot-audit clients in
	// replication mode (default 2).
	AuditWorkers int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Txns <= 0 {
		c.Txns = 3
	}
	if c.RecoverEvery <= 0 && (c.CrashPrepareProb > 0 || c.CrashCommitProb > 0 ||
		c.CoordCrashProb > 0 || c.PartitionProb > 0 || c.Churn || c.Replication) {
		c.RecoverEvery = 200 * time.Microsecond
	}
	if c.Churn && c.ChurnEvery <= 0 {
		c.ChurnEvery = 300 * time.Microsecond
	}
	if c.Replication {
		if c.ReplicationFactor <= 0 {
			c.ReplicationFactor = 3
		}
		if c.AuditWorkers <= 0 {
			c.AuditWorkers = 2
		}
	}
	if c.Delay <= 0 {
		c.Delay = 50 * time.Microsecond
	}
	if c.PartitionProb > 0 || c.ReplicaPartitionProb > 0 {
		if c.PartitionEvery <= 0 {
			c.PartitionEvery = 500 * time.Microsecond
		}
		if c.PartitionWindow <= 0 {
			c.PartitionWindow = 1500 * time.Microsecond
		}
	}
}

// Report is the outcome of a chaos run, returned even when the run fails
// so the caller can dump the diagnostic state.
type Report struct {
	Property tx.Property
	Seed     int64
	Commits  int64
	Aborts   int64
	Crashes  int64
	// Balances are the final committed account balances; Conserved is
	// their sum matched against the initial deposit.
	Balances  []int64
	Conserved bool
	// Events is the length of the recorded history; CheckErr is the
	// atomicity checker's verdict on it (empty = passed).
	Events   int
	CheckErr string
	// Audits counts completed snapshot audits and Converged reports the
	// follower-equals-leader oracle (replication mode only).
	Audits    int64
	Converged bool
	// Trace is the injector's activation trace; Injector its summary.
	Trace    []fault.Activation
	Injector string
	// Obs is the observability snapshot scoped to this run: counters and
	// histograms from every layer, plus the transaction event trace (the
	// tracer is enabled for the duration of the run).
	Obs obs.Snapshot
}

// Dump renders the report for diagnostics.
func (r *Report) Dump() string {
	status := "history PASSED " + r.Property.String() + " atomicity check"
	if r.CheckErr != "" {
		status = "history FAILED: " + r.CheckErr
	}
	return fmt.Sprintf(
		"chaos seed=%d property=%s commits=%d aborts=%d crashes=%d balances=%v conserved=%v events=%d\n%s\nfaults: %s",
		r.Seed, r.Property, r.Commits, r.Aborts, r.Crashes, r.Balances, r.Conserved, r.Events, status, r.Injector,
	)
}

func (c Config) injector() *fault.Injector {
	in := fault.New(c.Seed)
	in.Enable(fault.NetRequestDrop, fault.Rule{Prob: c.DropProb})
	in.Enable(fault.NetRequestDup, fault.Rule{Prob: c.DupProb})
	in.Enable(fault.NetReplyDrop, fault.Rule{Prob: c.ReplyDropProb})
	in.Enable(fault.NetDelay, fault.Rule{Prob: c.DelayProb, Delay: c.Delay})
	in.Enable(fault.DiskAppendTorn, fault.Rule{Prob: c.TornProb})
	in.Enable(fault.DiskAppendFail, fault.Rule{Prob: c.FailProb})
	in.Enable(fault.DiskCheckpointTorn, fault.Rule{Prob: c.TornProb})
	in.Enable(fault.SiteCrashPrepare, fault.Rule{Prob: c.CrashPrepareProb})
	in.Enable(fault.SiteCrashCommitBeforeLog, fault.Rule{Prob: c.CrashCommitProb})
	in.Enable(fault.SiteCrashCommitAfterLog, fault.Rule{Prob: c.CrashCommitProb})
	in.Enable(fault.NetPartition, fault.Rule{Prob: c.PartitionProb})
	in.Enable(fault.MigrateCrashSource, fault.Rule{Prob: c.MigrateCrashProb})
	in.Enable(fault.MigrateCrashDest, fault.Rule{Prob: c.MigrateCrashProb})
	in.Enable(fault.MigrateCrashCommit, fault.Rule{Prob: c.MigrateCrashProb})
	in.Enable(fault.MigratePartition, fault.Rule{Prob: c.MigratePartitionProb})
	in.Enable(fault.ClusterChurn, fault.Rule{Prob: c.ChurnProb})
	in.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: c.ReplicaDropProb})
	in.Enable(fault.ReplApplyCrash, fault.Rule{Prob: c.ReplicaCrashProb})
	in.Enable(fault.ReplPartition, fault.Rule{Prob: c.ReplicaPartitionProb})
	// The coordinator crash windows (fault.CoordCrashBeforeLog/AfterLog)
	// are armed by runDist after the seed deposit commits: an orphaned,
	// committed-but-retried seed would double the deposit and break the
	// conservation oracle, while orphaned transfers are sum-preserving.
	return in
}

// perTransfer is the amount each transfer moves between accounts.
const perTransfer = 5

// Run executes one chaos run bounded by ctx: when ctx expires the workload
// stops promptly (tx.RunCtx honours it through retries and backoff waits)
// and Run fails with the context error. The returned Report is non-nil
// whenever the system was built, including on failure.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	(&cfg).fill()
	// Scope the process-wide observability registry to this run: reset the
	// counters and enable the event tracer, then attach the snapshot to the
	// report — one JSON document explains the run end to end.
	obs.Default.Reset()
	tr := obs.Default.Tracer()
	wasEnabled := tr.Enabled()
	tr.Enable()
	defer func() {
		if !wasEnabled {
			tr.Disable()
		}
	}()
	var rep *Report
	var err error
	switch cfg.Property {
	case tx.Dynamic:
		if cfg.Replication {
			rep, err = runReplication(ctx, cfg)
		} else if cfg.Churn {
			rep, err = runChurn(ctx, cfg)
		} else {
			rep, err = runDist(ctx, cfg)
		}
	case tx.Static, tx.Hybrid:
		rep, err = runLocal(ctx, cfg)
	default:
		return nil, fmt.Errorf("chaos: unknown property %d", cfg.Property)
	}
	if rep != nil {
		rep.Obs = obs.Default.Snapshot(true)
	}
	return rep, err
}

// recorder collects the global event history from site sinks, sharded via
// the runtime kernel's recorder so chaos workers don't serialize on one
// history mutex.
type recorder struct {
	rec ccrt.Recorder
}

func (r *recorder) sink() cc.EventSink {
	return r.rec.Emit
}

func (r *recorder) history() histories.History {
	return r.rec.History()
}

// transfer moves perTransfer from acct0 to acct1 (skipping the deposit when
// escrow reports insufficient funds) and does one queue operation: workers
// enqueue a unique tag, except every third round dequeues instead.
func transfer(txn *tx.Txn, worker, round int) error {
	v, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(perTransfer))
	if err != nil {
		return err
	}
	if v == value.Unit() {
		if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(perTransfer)); err != nil {
			return err
		}
	}
	if round%3 == 2 {
		_, err = txn.Invoke("queue", adts.OpDequeue, value.Nil())
	} else {
		_, err = txn.Invoke("queue", adts.OpEnqueue, value.Int(int64(worker*100+round)))
	}
	return err
}

// seedWorkload deposits the run's total into acct0.
func seedWorkload(ctx context.Context, cfg Config, m *tx.Manager) error {
	total := int64(cfg.Workers * cfg.Txns * perTransfer)
	if err := m.RunCtx(ctx, func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(total))
		return err
	}); err != nil {
		return fmt.Errorf("chaos: seeding: %w", err)
	}
	return nil
}

// runWorkers seeds acct0 and runs the concurrent transfer workload.
func runWorkers(ctx context.Context, cfg Config, m *tx.Manager) error {
	if err := seedWorkload(ctx, cfg, m); err != nil {
		return err
	}
	return runTransfers(ctx, cfg, m)
}

// runTransfers runs the concurrent transfer workload.
func runTransfers(ctx context.Context, cfg Config, m *tx.Manager) error {
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			for i := 0; i < cfg.Txns; i++ {
				if err := m.RunCtx(ctx, func(txn *tx.Txn) error {
					return transfer(txn, w, i)
				}); err != nil {
					errs <- fmt.Errorf("chaos: worker %d txn %d: %w", w, i, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < cfg.Workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func checkHistory(prop tx.Property, h histories.History) string {
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	ck.Register("queue", adts.QueueSpec{})
	var err error
	switch prop {
	case tx.Dynamic:
		err = ck.DynamicAtomic(h)
	case tx.Static:
		err = ck.StaticAtomic(h)
	case tx.Hybrid:
		err = ck.HybridAtomic(h)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// runDist is the dynamic-atomicity mode: two sites, escrow accounts on
// each, a FIFO queue, a crashable coordinator with its own decision log,
// distributed two-phase commit, message faults, site- and
// coordinator-crash windows, network partitions and WAL checkpointing,
// with a recoverer reviving crashed nodes and driving the in-doubt
// resolver. The client's messages originate at the coordinator's network
// position, so an open partition cuts transactions off from the sites on
// the far side.
func runDist(ctx context.Context, cfg Config) (*Report, error) {
	inj := cfg.injector()
	rec := &recorder{}
	net := dist.NewNetwork(0, 0, cfg.Seed)
	net.SetInjector(inj)
	net.SetRPC(300*time.Microsecond, 7)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: "C", Network: net, Injector: inj})
	if err != nil {
		return nil, err
	}

	newSite := func(id dist.SiteID) (*dist.Site, error) {
		return dist.NewSite(dist.SiteConfig{
			ID:          id,
			Network:     net,
			Coordinator: "C",
			Sink:        rec.sink(),
			Injector:    inj,
			WaitTimeout: 2 * time.Millisecond,
		})
	}
	siteA, err := newSite("A")
	if err != nil {
		return nil, err
	}
	siteB, err := newSite("B")
	if err != nil {
		return nil, err
	}
	// acct0 exercises the full tiered cascade under faults; acct1 keeps the
	// standalone escrow guard covered, and the queue the plain table guard.
	// The queue rides the table guard for a second reason: it grants two
	// enqueues concurrently only when they carry the same value, where their
	// order cannot show. Under the cascade (or exact) guard two transactions
	// may prepare enqueues of different values in one order and commit in
	// the other, and a site redoes a committed transaction at the log
	// position of its prepare, not of its commit — restart would rebuild a
	// queue no live transaction saw (dist.TestSiteRedoOrderHole, DESIGN
	// §13). The committed seed matrix stays clear of that hole until
	// recovery gains a per-object commit point.
	cascade := func(t adts.Type) locking.Guard { return conflict.ForType(t) }
	escrow := func(adts.Type) locking.Guard { return locking.EscrowGuard{} }
	table := func(t adts.Type) locking.Guard { return locking.TableGuard{Conflicts: t.Conflicts} }
	if err := siteA.AddObject("acct0", adts.Account(), cascade); err != nil {
		return nil, err
	}
	if err := siteB.AddObject("acct1", adts.Account(), escrow); err != nil {
		return nil, err
	}
	if err := siteB.AddObject("queue", adts.Queue(), table); err != nil {
		return nil, err
	}
	m, err := tx.NewManager(tx.Config{
		Property:    tx.Dynamic,
		Coordinator: coord,
		MaxRetries:  10000,
		Backoff:     tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: cfg.Seed + 1},
	})
	if err != nil {
		return nil, err
	}
	for _, r := range []cc.Resource{
		dist.NewRemoteResourceAt(net, "C", "A", "acct0"),
		dist.NewRemoteResourceAt(net, "C", "B", "acct1"),
		dist.NewRemoteResourceAt(net, "C", "B", "queue"),
	} {
		if err := m.Register(r); err != nil {
			return nil, err
		}
	}

	// Background drivers run while the transfer workload does. The
	// recoverer revives crashed sites and the coordinator and runs the
	// in-doubt resolver at up sites; the partition driver opens windows
	// when fault.NetPartition fires; the checkpoint driver compacts logs.
	done := make(chan struct{})
	var drivers sync.WaitGroup
	stopDrivers := func() { close(done); drivers.Wait() }
	if cfg.RecoverEvery > 0 {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.RecoverEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if !coord.Up() {
						_ = coord.Recover()
					}
					for _, s := range net.Sites() {
						if !s.Up() {
							// ErrStillInDoubt (coordinator down or
							// partitioned, peers silent) is retried on the
							// next tick.
							_ = s.Recover()
						} else {
							s.ResolveInDoubt(2 * time.Millisecond)
							// Reclaim locks of unprepared transactions whose
							// client-side abort never arrived (partitioned
							// away or retransmissions exhausted); nothing
							// else ever visits them. Live clients finish in
							// well under the idle threshold.
							s.AbortAbandoned(25 * time.Millisecond)
						}
					}
				}
			}
		}()
	}
	if cfg.PartitionProb > 0 {
		splits := [][][]dist.SiteID{
			{{"C", "A"}, {"B"}},
			{{"C", "B"}, {"A"}},
			{{"A", "B"}, {"C"}},
		}
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.PartitionEvery)
			defer tick.Stop()
			next := 0
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if !inj.Fires(fault.NetPartition) {
						continue
					}
					net.Partition(splits[next%len(splits)]...)
					next++
					select {
					case <-done:
						net.Heal()
						return
					case <-time.After(cfg.PartitionWindow):
					}
					net.Heal()
				}
			}
		}()
	}
	if cfg.CheckpointEvery > 0 {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.CheckpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					for _, s := range net.Sites() {
						if s.Up() {
							_, _ = s.Checkpoint()
						}
					}
					if coord.Up() {
						_, _ = coord.Checkpoint()
					}
				}
			}
		}()
	}

	workErr := seedWorkload(ctx, cfg, m)
	if workErr == nil {
		// Arm the coordinator crash windows only now: see injector().
		inj.Enable(fault.CoordCrashBeforeLog, fault.Rule{Prob: cfg.CoordCrashProb})
		inj.Enable(fault.CoordCrashAfterLog, fault.Rule{Prob: cfg.CoordCrashProb})
		workErr = runTransfers(ctx, cfg, m)
	}
	stopDrivers()

	// Final phase: heal the network, detach message faults (their damage is
	// done; what remains is bringing the system to a checkable state), and
	// quiesce — every node up, every in-doubt transaction resolved through
	// the termination protocol, every committed effect installed.
	net.Heal()
	net.SetInjector(nil)
	if !coord.Up() {
		if err := coord.Recover(); err != nil {
			return nil, fmt.Errorf("chaos: final coordinator recovery: %w", err)
		}
	}
	for round := 0; ; round++ {
		allUp := true
		pending := 0
		for _, s := range net.Sites() {
			if !s.Up() {
				if err := s.Recover(); err != nil {
					allUp = false
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
			break
		}
		if round >= 200 {
			return nil, fmt.Errorf("chaos: final recovery did not quiesce: allUp=%v pending=%d", allUp, pending)
		}
		time.Sleep(500 * time.Microsecond)
	}

	// Restart-replay oracle: crash every site and recover it, so the final
	// committed states are provably reconstructible from the write-ahead
	// logs (checkpoint + suffix after compaction) plus the termination
	// protocol — never from surviving volatile state.
	probes := []struct {
		s   *dist.Site
		ids []histories.ObjectID
	}{{siteA, []histories.ObjectID{"acct0"}}, {siteB, []histories.ObjectID{"acct1", "queue"}}}
	before := make(map[histories.ObjectID]string)
	for _, p := range probes {
		for _, id := range p.ids {
			key, err := p.s.CommittedStateKey(id)
			if err != nil {
				return nil, err
			}
			before[id] = key
		}
	}
	for _, p := range probes {
		p.s.Crash()
		if err := p.s.Recover(); err != nil {
			return nil, fmt.Errorf("chaos: restart oracle recovering %s: %w", p.s.ID(), err)
		}
	}

	rep := &Report{Property: cfg.Property, Seed: cfg.Seed, Trace: inj.Trace(), Injector: inj.Summary()}
	rep.Commits, rep.Aborts = m.Stats()
	rep.Crashes = siteA.Crashes() + siteB.Crashes() + coord.Crashes()
	h := rec.history()
	rep.Events = len(h)

	// Conservation, read from the committed states directly (no extra
	// transactions, so the checked history stays the workload's own).
	var sum int64
	var replayErr error
	for _, p := range probes {
		for _, id := range p.ids {
			key, err := p.s.CommittedStateKey(id)
			if err != nil {
				return rep, err
			}
			if key != before[id] && replayErr == nil {
				replayErr = fmt.Errorf("chaos: restart replay of %s = %q, live committed = %q", id, key, before[id])
			}
			if id != "queue" {
				b, err := strconv.ParseInt(key, 10, 64)
				if err != nil {
					return rep, fmt.Errorf("chaos: account state %q: %w", key, err)
				}
				rep.Balances = append(rep.Balances, b)
				sum += b
			}
		}
	}
	total := int64(cfg.Workers * cfg.Txns * perTransfer)
	rep.Conserved = sum == total
	rep.CheckErr = checkHistory(cfg.Property, h)

	if workErr != nil {
		return rep, workErr
	}
	if replayErr != nil {
		return rep, replayErr
	}
	if !rep.Conserved {
		return rep, fmt.Errorf("chaos: conservation violated: balances %v sum %d, want %d", rep.Balances, sum, total)
	}
	if rep.CheckErr != "" {
		return rep, errors.New("chaos: " + rep.CheckErr)
	}
	return rep, nil
}

// runLocal is the static/hybrid mode: a local system with a write-ahead
// log, stable-storage faults injected at the disk, and — when the protocol
// logs intentions — a crash-restart oracle replaying the log from scratch.
func runLocal(ctx context.Context, cfg Config) (*Report, error) {
	inj := cfg.injector()
	disk := &recovery.Disk{}
	disk.SetInjector(inj)
	kind := sim.KindMVCC
	if cfg.Property == tx.Hybrid {
		kind = sim.KindHybrid
	}
	sys, err := sim.NewSystem(sim.Config{
		Kind:    kind,
		Record:  true,
		Seed:    cfg.Seed,
		WAL:     disk,
		Backoff: tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: cfg.Seed + 1},
	}, 2, true)
	if err != nil {
		return nil, err
	}
	m := sys.Manager

	workErr := runWorkers(ctx, cfg, m)

	rep := &Report{Property: cfg.Property, Seed: cfg.Seed, Trace: inj.Trace(), Injector: inj.Summary()}
	rep.Commits, rep.Aborts = m.Stats()
	h := m.History()
	rep.Events = len(h)
	rep.CheckErr = checkHistory(cfg.Property, h)

	// Balances via read transactions — after capturing the checked history,
	// so the audit reads don't inflate it.
	var sum int64
	for _, id := range []histories.ObjectID{"acct0", "acct1"} {
		var b int64
		if err := m.RunCtx(ctx, func(txn *tx.Txn) error {
			v, err := txn.Invoke(id, adts.OpBalance, value.Nil())
			if err != nil {
				return err
			}
			b = v.MustInt()
			return nil
		}); err != nil {
			return rep, fmt.Errorf("chaos: reading %s: %w", id, err)
		}
		rep.Balances = append(rep.Balances, b)
		sum += b
	}
	total := int64(cfg.Workers * cfg.Txns * perTransfer)
	rep.Conserved = sum == total

	if workErr != nil {
		return rep, workErr
	}
	if err := sys.Err(); err != nil {
		return rep, fmt.Errorf("chaos: object invariant: %w", err)
	}
	if !rep.Conserved {
		return rep, fmt.Errorf("chaos: conservation violated: balances %v sum %d, want %d", rep.Balances, sum, total)
	}
	if rep.CheckErr != "" {
		return rep, errors.New("chaos: " + rep.CheckErr)
	}

	// Crash-restart oracle: hybrid objects report intentions, so the log
	// alone must rebuild the live committed balances. (The mvcc protocol
	// keeps no intentions lists — static runs skip this.)
	if cfg.Property == tx.Hybrid {
		states, err := recovery.Restart(disk, map[histories.ObjectID]spec.SerialSpec{
			"acct0": adts.AccountSpec{},
			"acct1": adts.AccountSpec{},
			"queue": adts.QueueSpec{},
		})
		if err != nil {
			return rep, fmt.Errorf("chaos: restart replay: %w", err)
		}
		for i, id := range []histories.ObjectID{"acct0", "acct1"} {
			b, err := strconv.ParseInt(states[id].Key(), 10, 64)
			if err != nil {
				return rep, fmt.Errorf("chaos: restarted state %q: %w", states[id].Key(), err)
			}
			if b != rep.Balances[i] {
				return rep, fmt.Errorf("chaos: restart replay of %s = %d, live committed = %d", id, b, rep.Balances[i])
			}
		}
	}
	return rep, nil
}
