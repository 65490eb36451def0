package dist

import (
	"errors"
	"fmt"
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
)

// Observability for the coordinator.
var (
	obsCoordCommits    = obs.Default.Counter("dist.coord.decisions.commit")
	obsCoordAborts     = obs.Default.Counter("dist.coord.decisions.abort")
	obsCoordCrashes    = obs.Default.Counter("dist.coord.crashes")
	obsCoordRecoveries = obs.Default.Counter("dist.coord.recoveries")
	obsCoordTrace      = obs.Default.Tracer()
)

// CoordinatorConfig configures a coordinator.
type CoordinatorConfig struct {
	// ID names the coordinator on the network. Required.
	ID SiteID
	// Network to attach to (participants query it over this network during
	// cooperative termination). Required.
	Network *Network
	// Injector, when set, attaches fault injection: crash windows around
	// the decision force (fault.CoordCrashBeforeLog,
	// fault.CoordCrashAfterLog) and stable-storage faults on the
	// coordinator's own log (fault.DiskAppendFail, fault.DiskCheckpointTorn).
	Injector *fault.Injector
	// Disk substitutes the coordinator's stable storage. Nil selects a
	// fresh in-memory recovery.Disk.
	Disk recovery.Backend
}

// Coordinator is the crashable two-phase-commit coordinator: it forces
// every decision to its own write-ahead log before the runtime broadcasts
// it, crashes lose all volatile state, and recovery rebuilds the decision
// map from the log alone. In-doubt participants query it over the (faulty,
// partitionable) network; while it is down or partitioned away they fall
// back to polling their peers.
type Coordinator struct {
	id  SiteID
	net *Network
	inj *fault.Injector

	mu       sync.Mutex
	up       bool
	disk     recovery.Backend // stable: survives crashes
	decided  *decidedTable
	inflight map[histories.ActivityID]bool // volatile: Begin'd, not yet decided
	crashes  int64
}

// NewCoordinator creates a coordinator and attaches it to the network.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ID == "" || cfg.Network == nil {
		return nil, errors.New("dist: CoordinatorConfig needs ID and Network")
	}
	if cfg.Disk == nil {
		cfg.Disk = &recovery.Disk{}
	}
	c := &Coordinator{
		id:       cfg.ID,
		net:      cfg.Network,
		inj:      cfg.Injector,
		up:       true,
		disk:     cfg.Disk,
		decided:  newDecidedTable(),
		inflight: make(map[histories.ActivityID]bool),
	}
	c.disk.SetInjector(cfg.Injector)
	if err := cfg.Network.registerCoordinator(c); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the coordinator's network identifier.
func (c *Coordinator) ID() SiteID { return c.id }

// Up reports whether the coordinator is running.
func (c *Coordinator) Up() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.up
}

// Disk exposes the coordinator's stable storage (for tests).
func (c *Coordinator) Disk() recovery.Backend { return c.disk }

// Crashes returns how many times the coordinator has crashed.
func (c *Coordinator) Crashes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashes
}

// Committed reports whether txn is durably decided committed (for tests).
func (c *Coordinator) Committed(txn histories.ActivityID) bool {
	return c.queryOutcome(txn) == OutcomeCommitted
}

// Begin registers a transaction entering two-phase commit. While the entry
// is live the coordinator answers outcome queries with OutcomeInDoubt, so
// no participant can presume abort during the client's decision window. A
// crash wipes the entries — which is exactly what makes presumed abort
// sound afterwards, because Decide then refuses to commit any transaction
// it no longer remembers (the continuity rule).
func (c *Coordinator) Begin(txn histories.ActivityID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.up {
		c.inflight[txn] = true
	}
}

// Decide forces the outcome to the coordinator's write-ahead log. On
// success the decision is durable and the caller may broadcast it. The
// injectable crash windows sit on either side of the force: before it, no
// decision exists anywhere (participants resolve to presumed abort once
// the coordinator durably knows nothing); after it, the decision is
// durable but unbroadcast (participants stay in doubt until the
// termination protocol reads the recovered coordinator's log or a peer).
// Both windows return an error wrapping cc.ErrCoordinatorDown: the client
// is now an orphan and must not broadcast its own guess.
//
// The continuity rule: a commit decision is only accepted for a
// transaction whose Begin entry survived (no crash since). Otherwise some
// recovering participant may already have been told "presumed abort", so
// the coordinator durably decides abort instead and tells the client to
// broadcast aborts — that error wraps cc.ErrUnavailable but NOT
// cc.ErrCoordinatorDown.
func (c *Coordinator) Decide(txn histories.ActivityID, commit bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up {
		return fmt.Errorf("dist: coordinator %s: %w", c.id, cc.ErrCoordinatorDown)
	}
	if c.inj.Fires(fault.CoordCrashBeforeLog) {
		c.crashLocked()
		return fmt.Errorf("dist: coordinator %s crashed before logging the decision for %s: %w", c.id, txn, cc.ErrCoordinatorDown)
	}
	if commit && !c.inflight[txn] {
		c.abortDurablyLocked(txn)
		return fmt.Errorf("dist: coordinator %s lost %s across a crash; durably decided abort: %w", c.id, txn, cc.ErrUnavailable)
	}
	if err := c.disk.Append(recovery.OutcomeRecord(txn, commit)); err != nil {
		if commit {
			// The commit decision never became durable, so it was never
			// made: durably abort instead and have the client broadcast it.
			c.abortDurablyLocked(txn)
			return fmt.Errorf("dist: coordinator %s could not log commit for %s; durably decided abort: %w", c.id, txn, cc.ErrUnavailable)
		}
		// A failed abort append is tolerated: no record means presumed
		// abort, which is the decision being logged.
	}
	c.decided.set(txn, commit)
	delete(c.inflight, txn)
	if commit {
		obsCoordCommits.Inc()
	} else {
		obsCoordAborts.Inc()
	}
	if c.inj.Fires(fault.CoordCrashAfterLog) {
		c.crashLocked()
		return fmt.Errorf("dist: coordinator %s crashed after logging the decision for %s: %w", c.id, txn, cc.ErrCoordinatorDown)
	}
	return nil
}

// abortDurablyLocked forces an abort record for txn, detaching the fault
// injector for the write (the abort must stick — a real system retries
// until stable storage accepts it).
func (c *Coordinator) abortDurablyLocked(txn histories.ActivityID) {
	c.disk.SetInjector(nil)
	_ = c.disk.Append(recovery.Record{Kind: recovery.RecordAbort, Txn: txn})
	c.disk.SetInjector(c.inj)
	c.decided.set(txn, false)
	delete(c.inflight, txn)
}

// Crash takes the coordinator down, wiping the volatile decision cache and
// the in-flight set. Only the disk survives.
func (c *Coordinator) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.up {
		c.crashLocked()
	}
}

func (c *Coordinator) crashLocked() {
	c.up = false
	c.decided = nil
	c.inflight = nil
	c.crashes++
	obsCoordCrashes.Inc()
	if obsCoordTrace.Enabled() {
		obsCoordTrace.Record(obs.TraceEvent{Kind: obs.KindCrash, Site: string(c.id)})
	}
}

// Recover brings the coordinator back, rebuilding the decision map from
// the fold of its write-ahead log alone (compaction drops the commit records
// a checkpoint's Decided set summarises; abort records a checkpoint drops
// simply revert to presumed abort, the same answer).
func (c *Coordinator) Recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.up {
		return fmt.Errorf("dist: coordinator %s is already up", c.id)
	}
	c.decided = decidedFrom(recovery.FoldLog(c.disk.Records()).Decided())
	c.inflight = make(map[histories.ActivityID]bool)
	c.up = true
	obsCoordRecoveries.Inc()
	if obsCoordTrace.Enabled() {
		obsCoordTrace.Record(obs.TraceEvent{Kind: obs.KindRecover, Site: string(c.id)})
	}
	return nil
}

// Checkpoint compacts the coordinator's decision log down to a checkpoint
// record carrying the committed-transaction set, returning the estimated
// bytes reclaimed.
func (c *Coordinator) Checkpoint() (int64, error) {
	if !c.Up() {
		return 0, fmt.Errorf("%w: coordinator %s", ErrSiteDown, c.id)
	}
	return c.disk.Checkpoint(nil)
}

// queryOutcome answers an outcome query. The decision map is a
// write-through cache of the coordinator's log (every Decide forces the
// record before caching it, and recovery rebuilds the cache from the log),
// so the answer always reflects durable state; OutcomeInDoubt shields
// transactions inside a live client's decision window, and OutcomeUnknown
// is a safe presumed-abort answer by the continuity rule. A down
// coordinator has no map and answers OutcomeInDoubt, the same rule as a
// site's: it may have logged a commit, so it must not promise presumed
// abort.
func (c *Coordinator) queryOutcome(txn histories.ActivityID) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up {
		return OutcomeInDoubt
	}
	if c.inflight[txn] {
		return OutcomeInDoubt
	}
	return c.decided.outcome(txn)
}
