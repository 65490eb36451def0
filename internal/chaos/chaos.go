// Package chaos is the randomized fault-injection harness: it runs
// bank/queue workloads against a full system — distributed two-phase commit
// for dynamic atomicity (a fixed two-site cluster, an elastic cluster under
// membership churn, or a replicated cluster), write-ahead-logged local
// systems for static and hybrid atomicity — while a seeded fault.Injector
// drops, duplicates and delays messages, tears and fails log writes, and
// crashes sites inside the commit protocol. A recoverer brings crashed sites
// back up mid-run.
//
// The oracle is the paper's own theory: after the run the recorded event
// history must satisfy the configured local atomicity property (the exact
// Checker from internal/core), money must be conserved across the escrow
// accounts, and — where intentions are logged — a restart from the log
// alone must reproduce the live committed state. Faults are decided purely
// by (seed, point, hit), so a failing run is replayed exactly by rerunning
// its seed.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/core"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/sim"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// Config parameterises a chaos run. The zero value is invalid: Property is
// required; everything else defaults via fill. Each mode reads only its own
// fields and ignores the rest.
type Config struct {
	// Property selects the system under test: Dynamic runs a distributed
	// cluster (see Churn and Replication for its modes), Static and Hybrid
	// run local write-ahead-logged systems.
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
	// decision force (dynamic and churn; enabled after seeding, so the seed
	// deposit cannot be orphaned and retried into a double deposit).
	CoordCrashProb float64
	// PartitionProb arms the partition driver of the two-site mode: on its
	// cadence it consults fault.NetPartition and, when it fires, splits the
	// network into rotating groups for a window, then heals (started after
	// seeding).
	PartitionProb float64
	// CheckpointEvery, when positive, checkpoints every up site's and
	// coordinator's write-ahead log on that cadence, compacting it mid-run
	// (dynamic only).
	CheckpointEvery time.Duration
	// Churn selects the elastic-cluster mode for dynamic runs: four sites
	// behind a placement ring, a two-member coordinator pool, and a churn
	// driver taking membership actions (targeted moves, join/leave,
	// rebalance) while the workload runs. See churnTopology.
	Churn bool
	// ChurnProb arms fault.ClusterChurn: the churn driver consults it on
	// its cadence and acts when it fires.
	ChurnProb float64
	// MigrateCrashProb arms the shard-migration crash windows
	// (fault.MigrateCrashSource, fault.MigrateCrashDest,
	// fault.MigrateCrashCommit) at every site.
	MigrateCrashProb float64
	// MigratePartitionProb arms fault.MigratePartition: the network splits
	// between a migration's copy and its commit, isolating one half.
	MigratePartitionProb float64
	// Replication selects the replica-group mode for dynamic runs (it wins
	// over Churn): four sites, every object replicated at factor 3,
	// commuting operations streaming to followers without locks or 2PC,
	// snapshot audits reading at any follower. See replicationTopology.
	Replication bool
	// ReplicaDropProb arms fault.ReplDeliverDrop: follower deliveries are
	// dropped in flight and retried by the replicator's queues.
	ReplicaDropProb float64
	// ReplicaCrashProb arms fault.ReplApplyCrash: the follower crashes
	// inside the apply windows (after logging the delivery, before or after
	// committing it), forcing redelivery against a recovered replica.
	ReplicaCrashProb float64
	// ReplicaPartitionProb arms fault.ReplPartition: the partition driver
	// consults it on its cadence and, when it fires, splits one site from
	// the rest for a window.
	ReplicaPartitionProb float64
}

// The drivers' fixed cadences and the replication mode's fixed shape.
const (
	recoverEvery      = 200 * time.Microsecond
	partitionEvery    = 500 * time.Microsecond
	partitionWindow   = 1500 * time.Microsecond
	churnEvery        = 300 * time.Microsecond
	replicationFactor = 3
	auditWorkers      = 2
)

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Txns <= 0 {
		c.Txns = 3
	}
	if c.Delay <= 0 {
		c.Delay = 50 * time.Microsecond
	}
	if c.Replication {
		c.Churn = false
	}
}

// recovers reports whether the run needs the recoverer: some crash,
// partition, churn or replication fault class is armed.
func (c Config) recovers() bool {
	return c.CrashPrepareProb > 0 || c.CrashCommitProb > 0 || c.CoordCrashProb > 0 ||
		c.PartitionProb > 0 || c.Churn || c.Replication
}

// Report is the outcome of a chaos run, returned even when the run fails
// so the caller can dump the diagnostic state.
type Report struct {
	Property tx.Property
	Seed     int64
	Commits  int64
	Aborts   int64
	// Crashes counts the crashes the faults injected at sites and
	// coordinators (not the restart oracle's own).
	Crashes int64
	// Balances are the final committed account balances; Conserved is
	// their sum matched against the initial deposit.
	Balances  []int64
	Conserved bool
	// Events is the length of the recorded history; CheckErr is the
	// atomicity checker's verdict on it (empty = passed). History keeps
	// the checked history when the checker failed.
	Events   int
	CheckErr string
	History  histories.History
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
	// are armed by runCluster after the seed deposit commits: an orphaned,
	// committed-but-retried seed would double the deposit and break the
	// conservation oracle, while orphaned transfers are sum-preserving.
	// A point outside a mode's topology is armed but never reached.
	return in
}

// perTransfer is the amount each transfer moves between accounts.
const perTransfer = 5

// accounts are the escrow accounts whose balances the conservation oracle
// sums; objects adds the FIFO queue.
var (
	accounts = []histories.ObjectID{"acct0", "acct1"}
	objects  = []histories.ObjectID{"acct0", "acct1", "queue"}
)

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
	inj := cfg.injector()
	var rep *Report
	var err error
	switch cfg.Property {
	case tx.Dynamic:
		rep, err = runCluster(ctx, cfg, inj)
	case tx.Static, tx.Hybrid:
		rep, err = runLocal(ctx, cfg, inj)
	default:
		return nil, fmt.Errorf("chaos: unknown property %d", cfg.Property)
	}
	if rep != nil {
		rep.Trace, rep.Injector = inj.Trace(), inj.Summary()
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

// total is the money the seed deposit puts into acct0.
func (c Config) total() int64 {
	return int64(c.Workers * c.Txns * perTransfer)
}

// seedWorkload deposits the run's total into acct0.
func seedWorkload(ctx context.Context, cfg Config, m *tx.Manager) error {
	if err := m.RunCtx(ctx, func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(cfg.total()))
		return err
	}); err != nil {
		return fmt.Errorf("chaos: seeding: %w", err)
	}
	return nil
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

// check runs the property's exact checker over the recorded history,
// keeping the history on the report when it fails, and returns the verdict.
func (r *Report) check(h histories.History) error {
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	ck.Register("queue", adts.QueueSpec{})
	var err error
	switch r.Property {
	case tx.Dynamic:
		err = ck.DynamicAtomic(h)
	case tx.Static:
		err = ck.StaticAtomic(h)
	case tx.Hybrid:
		err = ck.HybridAtomic(h)
	}
	r.Events, r.CheckErr, r.History = len(h), "", nil
	if err != nil {
		r.CheckErr, r.History = err.Error(), h
		return errors.New("chaos: " + r.CheckErr)
	}
	return nil
}

// conserve records the final balances and checks their sum against the
// seeded total.
func (r *Report) conserve(total int64, balances []int64) error {
	var sum int64
	for _, b := range balances {
		sum += b
	}
	r.Balances, r.Conserved = balances, sum == total
	if !r.Conserved {
		return fmt.Errorf("chaos: conservation violated: balances %v sum %d, want %d", balances, sum, total)
	}
	return nil
}

// firstError returns the first failed verdict, the oracles listed in
// precedence order.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// balance parses an account's committed state key.
func balance(key string) (int64, error) {
	b, err := strconv.ParseInt(key, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("chaos: account state %q: %w", key, err)
	}
	return b, nil
}

// runLocal is the static/hybrid mode: a local system with a write-ahead
// log, stable-storage faults injected at the disk, and — when the protocol
// logs intentions — a crash-restart oracle replaying the log from scratch.
func runLocal(ctx context.Context, cfg Config, inj *fault.Injector) (*Report, error) {
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

	workErr := seedWorkload(ctx, cfg, m)
	if workErr == nil {
		workErr = runTransfers(ctx, cfg, m)
	}

	rep := &Report{Property: cfg.Property, Seed: cfg.Seed}
	rep.Commits, rep.Aborts = m.Stats()
	checkErr := rep.check(m.History())

	// Balances via read transactions — after capturing the checked history,
	// so the audit reads don't inflate it.
	var balances []int64
	for _, id := range accounts {
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
		balances = append(balances, b)
	}
	consErr := rep.conserve(cfg.total(), balances)
	invErr := sys.Err()
	if invErr != nil {
		invErr = fmt.Errorf("chaos: object invariant: %w", invErr)
	}
	if err := firstError(workErr, invErr, consErr, checkErr); err != nil {
		return rep, err
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
		for i, id := range accounts {
			b, err := balance(states[id].Key())
			if err != nil {
				return rep, err
			}
			if b != rep.Balances[i] {
				return rep, fmt.Errorf("chaos: restart replay of %s = %d, live committed = %d", id, b, rep.Balances[i])
			}
		}
	}
	return rep, nil
}
