// Package tx is the transaction runtime: it runs activities (goroutines)
// against protocol resources, drives two-phase commit across the objects a
// transaction touched, assigns timestamps according to the local atomicity
// property in force, records the global event history for offline
// checking, and retries transactions aborted by deadlock or timestamp
// conflicts.
package tx

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability: the runtime publishes transaction lifecycle metrics into
// the process-wide obs registry. Pointers are resolved once; the per-event
// cost is a few atomic adds (and nothing but one atomic load for trace
// points while the tracer is disabled).
var (
	obsBegins    = obs.Default.Counter("tx.begin")
	obsCommits   = obs.Default.Counter("tx.commit")
	obsAborts    = obs.Default.Counter("tx.abort")
	obsRetries   = obs.Default.Counter("tx.retry")
	obsExhausted = obs.Default.Counter("tx.retries.exhausted")
	obsBackoffs  = obs.Default.Counter("tx.backoff.sleeps")
	obsOrphans   = obs.Default.Counter("tx.orphans")

	obsCommitLat  = obs.Default.Histogram("tx.commit.latency_ns")
	obsAbortLat   = obs.Default.Histogram("tx.abort.latency_ns")
	obsBackoffLat = obs.Default.Histogram("tx.backoff.sleep_ns")
	obsPrepareLat = obs.Default.Histogram("tx.2pc.prepare_ns")
	obsInstallLat = obs.Default.Histogram("tx.2pc.commit_ns")

	obsTrace = obs.Default.Tracer()
)

// NoteAbort publishes an abort's cause to the aborts-by-cause counters
// (tx.abort.deadlock, tx.abort.conflict, ...). Retry drivers call it with
// the error that doomed the attempt; a nil error is a no-op.
func NoteAbort(err error) {
	if err == nil {
		return
	}
	obs.Default.Counter("tx.abort." + cc.AbortCause(err)).Inc()
}

// Property selects the local atomicity property the system runs under; it
// determines when transactions choose timestamps.
type Property int

// Properties.
const (
	// Dynamic: no timestamps; serialization order emerges from commits
	// (locking protocols).
	Dynamic Property = iota + 1
	// Static: every transaction draws a timestamp at Begin (Reed's
	// multi-version protocol).
	Static
	// Hybrid: updates draw timestamps at commit, read-only transactions at
	// Begin.
	Hybrid
)

// String returns the property's name.
func (p Property) String() string {
	switch p {
	case Dynamic:
		return "dynamic"
	case Static:
		return "static"
	case Hybrid:
		return "hybrid"
	default:
		return "invalid"
	}
}

// TimestampSource issues unique timestamps. Hybrid atomicity needs them
// strictly increasing in the order Next is called (clock.Source): a hybrid
// object's version log must grow in timestamp order, and a reader passes a
// prepared update only because the update's commit timestamp, drawn after
// its prepare floor, is above the floor. Static atomicity accepts any
// unique source, skewed ones included (clock.Skewed).
type TimestampSource interface {
	Next() histories.Timestamp
}

// Doomer is the deadlock detector's view of transaction deaths
// (implemented by locking.Detector); optional. Objects report waits to the
// detector themselves, so the runtime only tells it when a transaction
// finishes.
type Doomer interface {
	Forget(txn histories.ActivityID)
}

// callsReporter is implemented by resources that can report a
// transaction's pending intentions (used for write-ahead logging).
type callsReporter interface {
	PendingCalls(txn *cc.TxnInfo) []spec.Call
}

// siteReporter is implemented by resources that live at a named site
// (dist.RemoteResource). The runtime gathers the sites of a transaction's
// joined resources into TxnInfo.Participants before prepare, so each
// participant's logged yes-vote names the peers that cooperative
// termination may poll.
type siteReporter interface {
	ParticipantSite() string
}

// txnSiteReporter is implemented by resources whose hosting site can
// differ per transaction — a placement-routed cluster proxy pins the
// object's home at the transaction's first contact, and a later
// transaction may find the object migrated elsewhere. It takes precedence
// over siteReporter.
type txnSiteReporter interface {
	ParticipantSiteFor(txn histories.ActivityID) string
}

// ReadRouter maps an object to an alternate resource for read-only
// transactions — a replica snapshot reader that executes at any follower of
// the object's replica group — or nil to keep the registered (locked,
// leader-routed) resource. dist.Cluster.ReadRouter builds one.
type ReadRouter func(histories.ObjectID) cc.Resource

// snapshotReader marks resources whose reads are serialized by a snapshot
// timestamp alone: they take no locks and have nothing to prepare, so a
// transaction joined only to such resources skips the coordinator's
// two-phase commit entirely.
type snapshotReader interface {
	SnapshotRead() bool
}

// Coordinator is the distributed commit coordinator the runtime reports
// decisions to. Begin is called when two-phase commit starts (before any
// prepare); Decide is called with the outcome — after every prepare
// succeeded and before any resource installs (commit), or when the
// transaction aborts. Decide makes the outcome durable before returning;
// an error wrapping cc.ErrCoordinatorDown means the client cannot know
// whether the decision was logged, and the transaction becomes an orphan
// (see Txn.Commit).
type Coordinator interface {
	Begin(txn histories.ActivityID)
	Decide(txn histories.ActivityID, commit bool) error
}

// Backoff configures retry pacing in Run: capped exponential backoff with
// equal jitter. The zero value selects the defaults.
type Backoff struct {
	// Base is the first retry's delay ceiling (default 100µs).
	Base time.Duration
	// Max caps the per-retry delay ceiling (default 10ms).
	Max time.Duration
	// Seed seeds the jitter (default 1); a fixed seed makes the delay
	// sequence reproducible.
	Seed int64
	// Sleep, when set, replaces the delay implementation: it receives the
	// retry context and the chosen delay and may return an error to stop
	// retrying (tests inject a recorder here; the default is a
	// context-aware timer wait).
	Sleep func(ctx context.Context, d time.Duration) error
}

func (b *Backoff) fill() {
	if b.Base <= 0 {
		b.Base = 100 * time.Microsecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Millisecond
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
}

// Config configures a Manager.
type Config struct {
	// Property selects the timestamp regime. Required.
	Property Property
	// Clock issues timestamps; required for Static and Hybrid. Under
	// Hybrid it must be strictly increasing (see TimestampSource).
	Clock TimestampSource
	// Detector, when set, is told when each transaction finishes.
	Detector Doomer
	// Record enables history recording (see Manager.Sink and
	// Manager.History).
	Record bool
	// WAL, when set, receives intentions and commit records during
	// two-phase commit, enabling crash-restart via recovery.Restart.
	WAL recovery.Backend
	// Coordinator, when set, is told when two-phase commit starts and is
	// asked to make each outcome durable — the coordinator's commit point
	// in distributed two-phase commit. Participants that crash afterwards
	// resolve in-doubt transactions through the cooperative termination
	// protocol, ultimately against the coordinator's durable log.
	Coordinator Coordinator
	// ReadRouter, when set, reroutes read-only transactions' invocations to
	// the resource it returns (non-nil means: read there instead). Update
	// transactions never consult it.
	ReadRouter ReadRouter
	// MaxRetries bounds automatic retries in Run (default 100).
	MaxRetries int
	// Backoff paces the retries in Run. The zero value selects capped
	// exponential backoff with equal jitter at the defaults.
	Backoff Backoff
}

// Manager coordinates transactions over a set of registered resources.
//
// Hot-path design: the resource registry publishes an immutable snapshot
// (Invoke's lookup is a lock-free pointer load), the history recorder is
// sharded (ccrt.Recorder), commit installation is ordered by a ticket
// sequencer instead of one mutex held across the whole install, and
// write-ahead logging goes through a group-commit leader that batches
// concurrent transactions' records into one stable-storage write.
type Manager struct {
	cfg Config
	seq atomic.Int64

	// The registry. Register inserts into resources under regMu, O(1).
	// Invoke reads published, an immutable copy of resources, without
	// locking; a resource registered since the copy was taken is found in
	// resources under regMu instead, and after as many such misses as there
	// are resources the reader that draws the last one republishes — so a
	// set-up of n Registers costs O(n), not a copy per insert, and the copy
	// is paid for by the misses that preceded it.
	published atomic.Pointer[map[histories.ObjectID]cc.Resource]
	regMu     sync.Mutex
	resources map[histories.ObjectID]cc.Resource
	misses    int // lookups published could not answer, since it was taken

	// recorder holds the sharded event history when recording is enabled;
	// sink is the one stable cc.EventSink handed to every resource.
	recorder *ccrt.Recorder
	sink     cc.EventSink

	// installSeq orders commit installations. Under Hybrid, tickets are
	// drawn atomically with commit timestamps, so ticket order == timestamp
	// order == version-log install order (§4.3.3). With a WAL, under every
	// property, the ticket is drawn atomically with the commit group's
	// group-commit queue position, so log order == ticket order == install
	// order: replaying the log in order rebuilds the state the live
	// transactions observed. No lock is held across the write-ahead logging
	// or the coordinator decision in between.
	installSeq ccrt.Sequencer

	// wal batches concurrent commit-record groups into single
	// stable-storage appends (group commit); nil without a WAL.
	wal *walGroup

	commits atomic.Int64
	aborts  atomic.Int64

	// chainSeq numbers retry chains; each chain derives its own jitter
	// generator so concurrent retriers never serialize on one shared RNG.
	chainSeq atomic.Int64
}

// ErrManagerConfig reports an invalid configuration.
var ErrManagerConfig = errors.New("tx: invalid manager configuration")

// NewManager validates cfg and returns a Manager.
func NewManager(cfg Config) (*Manager, error) {
	switch cfg.Property {
	case Dynamic, Static, Hybrid:
	default:
		return nil, fmt.Errorf("%w: unknown property %d", ErrManagerConfig, cfg.Property)
	}
	if cfg.Property != Dynamic && cfg.Clock == nil {
		return nil, fmt.Errorf("%w: %s atomicity needs a Clock", ErrManagerConfig, cfg.Property)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 100
	}
	(&cfg.Backoff).fill()
	m := &Manager{cfg: cfg, resources: make(map[histories.ObjectID]cc.Resource)}
	m.published.Store(&map[histories.ObjectID]cc.Resource{})
	if cfg.Record {
		m.recorder = ccrt.NewRecorder()
		m.sink = m.recorder.Emit
	}
	if cfg.WAL != nil {
		m.wal = &walGroup{disk: cfg.WAL}
	}
	return m, nil
}

// Sink returns the event sink resources should be constructed with (nil
// when recording is disabled). The sink is one stable value for the
// manager's lifetime: resources constructed at different times — including
// ones Registered after workers have started — share identical recording
// behaviour, all feeding the same sharded recorder.
func (m *Manager) Sink() cc.EventSink {
	return m.sink
}

// Register adds a resource. Registering two resources with one object id is
// a configuration error. Register is safe while transactions are running:
// the next lookup of the object sees the new resource.
func (m *Manager) Register(r cc.Resource) error {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if _, dup := m.resources[r.ObjectID()]; dup {
		return fmt.Errorf("%w: duplicate resource %s", ErrManagerConfig, r.ObjectID())
	}
	m.resources[r.ObjectID()] = r
	return nil
}

// resource looks up a registered resource.
func (m *Manager) resource(obj histories.ObjectID) (cc.Resource, bool) {
	if r, ok := (*m.published.Load())[obj]; ok {
		return r, true
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	r, ok := m.resources[obj]
	if !ok {
		return nil, false
	}
	if m.misses++; m.misses >= len(m.resources) {
		next := maps.Clone(m.resources)
		m.published.Store(&next)
		m.misses = 0
	}
	return r, true
}

// History returns a copy of the recorded history, merged from the
// recorder's shards in event-sequence order.
func (m *Manager) History() histories.History {
	if m.recorder == nil {
		return nil
	}
	return m.recorder.History()
}

// Stats returns (committed, aborted) transaction counts.
func (m *Manager) Stats() (commits, aborts int64) {
	return m.commits.Load(), m.aborts.Load()
}

// Status of a transaction.
type Status int

// Transaction statuses.
const (
	StatusActive Status = iota + 1
	StatusCommitted
	StatusAborted
)

// Txn is one transaction (activity). Txns are not safe for concurrent use
// by multiple goroutines: an activity is a sequential process (§2).
type Txn struct {
	m       *Manager
	info    cc.TxnInfo
	joined  []cc.Resource
	status  Status
	started time.Time
	// readOnly is set for BeginReadOnly transactions under every property
	// (info.ReadOnly only marks the hybrid timestamp regime); it is what
	// makes the transaction eligible for read-any routing.
	readOnly bool
	// readRes caches the read router's verdict per object for this
	// transaction, so every read of one object lands on one routed resource
	// (joined once) instead of a fresh proxy per invocation.
	readRes map[histories.ObjectID]cc.Resource
	// began2pc records that the coordinator was told about this
	// transaction, so an abort is reported back to it (explicit abort
	// decisions let termination queries distinguish "decided abort" from
	// "never heard of it").
	began2pc bool
}

// ResumeAfter makes every transaction begun from now on carry a sequence
// number above seq. A manager reopened on a durable log calls it with the
// highest number the log mentions: identifiers are never reused across
// lives, so replay cannot mistake a new transaction's intentions for an
// earlier life's.
func (m *Manager) ResumeAfter(seq int64) {
	for {
		cur := m.seq.Load()
		if cur >= seq || m.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Begin starts an update transaction.
func (m *Manager) Begin() *Txn { return m.begin(false) }

// BeginReadOnly starts a read-only transaction. Under hybrid atomicity it
// draws its snapshot timestamp now; under the other properties it is an
// ordinary transaction that happens to read.
func (m *Manager) BeginReadOnly() *Txn { return m.begin(true) }

func (m *Manager) begin(readOnly bool) *Txn {
	seq := m.seq.Add(1)
	t := &Txn{
		m: m,
		info: cc.TxnInfo{
			ID:  cc.TxnID(seq),
			Seq: seq,
		},
		status:   StatusActive,
		started:  time.Now(),
		readOnly: readOnly,
	}
	obsBegins.Inc()
	switch m.cfg.Property {
	case Static:
		t.info.TS = m.cfg.Clock.Next()
	case Hybrid:
		if readOnly {
			t.info.TS = m.cfg.Clock.Next()
			t.info.ReadOnly = true
		}
	}
	if obsTrace.Enabled() {
		note := ""
		if readOnly {
			note = "readonly"
		}
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindInitiate, Txn: string(t.info.ID), Note: note})
	}
	return t
}

// ID returns the activity identifier under which the transaction's events
// are recorded.
func (t *Txn) ID() histories.ActivityID { return t.info.ID }

// Timestamp returns the transaction's a-priori timestamp (zero if none).
func (t *Txn) Timestamp() histories.Timestamp { return t.info.TS }

// Status returns the transaction's status.
func (t *Txn) Status() Status { return t.status }

// ErrTxnDone reports use of a finished transaction.
var ErrTxnDone = errors.New("tx: transaction already committed or aborted")

// ErrNoResource reports an invocation on an unregistered object.
var ErrNoResource = errors.New("tx: no resource registered for object")

// Invoke executes op(arg) on the named object. On a protocol error the
// caller must Abort (or use Manager.Run, which does so automatically).
func (t *Txn) Invoke(obj histories.ObjectID, op string, arg value.Value) (value.Value, error) {
	if t.status != StatusActive {
		return value.Nil(), ErrTxnDone
	}
	r, ok := t.m.resource(obj)
	if !ok {
		return value.Nil(), fmt.Errorf("%w: %s", ErrNoResource, obj)
	}
	if t.readOnly && t.m.cfg.ReadRouter != nil {
		if routed, cached := t.readRes[obj]; cached {
			if routed != nil {
				r = routed
			}
		} else {
			routed := t.m.cfg.ReadRouter(obj)
			if t.readRes == nil {
				t.readRes = make(map[histories.ObjectID]cc.Resource)
			}
			t.readRes[obj] = routed // nil is cached too: stay on the leader
			if routed != nil {
				r = routed
			}
		}
	}
	t.join(r)
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindInvoke, Txn: string(t.info.ID), Obj: string(obj), Note: op})
		t0 := time.Now()
		v, err := r.Invoke(&t.info, spec.Invocation{Op: op, Arg: arg})
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindReturn, Txn: string(t.info.ID), Obj: string(obj), Note: op, Dur: time.Since(t0)})
		return v, err
	}
	return r.Invoke(&t.info, spec.Invocation{Op: op, Arg: arg})
}

// allSnapshotReads reports whether every joined resource is a snapshot
// reader — such a transaction has no locks, no intentions, and no votes, so
// there is no two-phase commit to coordinate.
func (t *Txn) allSnapshotReads() bool {
	for _, r := range t.joined {
		if sr, ok := r.(snapshotReader); !ok || !sr.SnapshotRead() {
			return false
		}
	}
	return len(t.joined) > 0
}

func (t *Txn) join(r cc.Resource) {
	for _, j := range t.joined {
		if j == r {
			return
		}
	}
	t.joined = append(t.joined, r)
}

// Commit drives two-phase commit over the joined resources. On a prepare
// failure the transaction is aborted and the error returned.
//
// With a Coordinator configured, the decision is made durable at the
// coordinator between the prepares and the installs. If the coordinator
// crashes during Decide, the client cannot know whether the decision was
// logged: the transaction is an orphan (§6). It finishes locally as
// aborted — retryably — but broadcasts nothing: sending aborts could
// contradict a commit decision that did reach the coordinator's log, so
// prepared participants are left in doubt for the cooperative termination
// protocol to resolve against durable state.
func (t *Txn) Commit() error {
	if t.status != StatusActive {
		return ErrTxnDone
	}
	if t.m.cfg.Coordinator != nil && len(t.joined) > 0 && !t.allSnapshotReads() {
		for _, r := range t.joined {
			if sr, ok := r.(txnSiteReporter); ok {
				t.info.Participants = append(t.info.Participants, sr.ParticipantSiteFor(t.info.ID))
			} else if sr, ok := r.(siteReporter); ok {
				t.info.Participants = append(t.info.Participants, sr.ParticipantSite())
			}
		}
		t.m.cfg.Coordinator.Begin(t.info.ID)
		t.began2pc = true
	}
	// A hybrid update draws its prepare floor before its first Prepare. A
	// reader whose timestamp was issued before the floor passes the
	// prepared update (the commit timestamp, drawn below, is above the
	// floor); a later reader waits for it.
	hybridUpdate := t.m.cfg.Property == Hybrid && !t.info.ReadOnly
	if hybridUpdate && len(t.joined) > 0 {
		t.info.PrepareFloor = t.m.cfg.Clock.Next()
	}
	prepStart := time.Now()
	for _, r := range t.joined {
		var r0 time.Time
		if obsTrace.Enabled() {
			r0 = time.Now()
		}
		if err := r.Prepare(&t.info); err != nil {
			t.Abort()
			return fmt.Errorf("tx: prepare failed: %w", err)
		}
		if obsTrace.Enabled() {
			obsTrace.Record(obs.TraceEvent{Kind: obs.KindPrepare, Txn: string(t.info.ID), Obj: string(r.ObjectID()), Dur: time.Since(r0)})
		}
	}
	if len(t.joined) > 0 {
		obsPrepareLat.Observe(int64(time.Since(prepStart)))
	}
	// A commit that must install in a fixed order draws a ticket and
	// installs between Wait and Done; logging and the coordinator decision
	// run OUTSIDE the ordered region, and any exit before installation must
	// Abandon the ticket. Two orders are fixed this way. Hybrid update
	// commits draw the ticket atomically with the commit timestamp: ticket
	// order == timestamp order, so version logs grow in timestamp order and
	// the timestamp order stays consistent with precedes (§4.3.3). Commits
	// through a WAL, under every property, draw it atomically with their
	// position in the group-commit queue: log order == install order, which
	// recovery needs because it redoes the log in order and operations whose
	// results are order-independent (two enqueues the exact guard grants
	// concurrently) need not leave order-independent states.
	var cts histories.Timestamp
	var ticket ccrt.Ticket
	hasTicket := false
	reserve := func() {
		ticket = t.m.installSeq.ReserveWith(func() {
			if hybridUpdate {
				cts = t.m.cfg.Clock.Next()
			}
		})
		hasTicket = true
	}
	abandon := func() {
		if hasTicket {
			t.m.installSeq.Abandon(ticket)
			hasTicket = false
		}
	}
	if t.m.wal != nil {
		// A failed (or torn) log write before the commit record aborts the
		// transaction: the commit record is the atomic commit point, and
		// nothing before it may be considered durable. Already-appended
		// intentions without a commit record are ignored by Restart.
		recs := make([]recovery.Record, 0, len(t.joined)+1)
		for _, r := range t.joined {
			if cr, ok := r.(callsReporter); ok {
				recs = append(recs, recovery.Record{
					Kind:   recovery.RecordIntentions,
					Txn:    t.info.ID,
					Object: r.ObjectID(),
					Calls:  cr.PendingCalls(&t.info),
				})
			}
		}
		recs = append(recs, recovery.Record{Kind: recovery.RecordCommit, Txn: t.info.ID})
		err := t.m.wal.submit(recs, func() {
			reserve()
			recs[len(recs)-1].TS = cts
		})
		if err != nil {
			abandon()
			t.Abort()
			return fmt.Errorf("tx: logging commit: %w", err)
		}
	} else if hybridUpdate {
		reserve()
	}
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindDecide, Txn: string(t.info.ID)})
	}
	if t.began2pc {
		if err := t.m.cfg.Coordinator.Decide(t.info.ID, true); err != nil {
			if errors.Is(err, cc.ErrCoordinatorDown) {
				// Orphaned: the decision may or may not be durable at the
				// coordinator. Finish without broadcasting — participants
				// resolve through termination, and a commit that did land
				// will be installed there, not here.
				abandon()
				obsOrphans.Inc()
				t.finish(StatusAborted)
				t.m.aborts.Add(1)
				obsAborts.Inc()
				return fmt.Errorf("tx: commit orphaned: %w", err)
			}
			// The decision could not be made durable and the coordinator
			// knows it (it records an abort instead): abort normally.
			abandon()
			t.Abort()
			return fmt.Errorf("tx: logging decision: %w", err)
		}
	}
	if hasTicket {
		t.m.installSeq.Wait(ticket)
	}
	installStart := time.Now()
	for _, r := range t.joined {
		r.Commit(&t.info, cts)
	}
	if hasTicket {
		t.m.installSeq.Done(ticket)
	}
	if len(t.joined) > 0 {
		obsInstallLat.Observe(int64(time.Since(installStart)))
	}
	t.finish(StatusCommitted)
	t.m.commits.Add(1)
	obsCommits.Inc()
	life := time.Since(t.started)
	obsCommitLat.Observe(int64(life))
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindCommit, Txn: string(t.info.ID), Dur: life})
	}
	return nil
}

// Abort aborts the transaction at every joined resource, reporting the
// explicit abort decision to the coordinator when two-phase commit had
// begun (a coordinator outage here is ignored: presumed abort covers
// undecided transactions).
func (t *Txn) Abort() {
	if t.status != StatusActive {
		return
	}
	if t.began2pc {
		_ = t.m.cfg.Coordinator.Decide(t.info.ID, false)
	}
	if disk := t.m.cfg.WAL; disk != nil {
		// The abort record is written but not waited for, and a failed
		// write is ignored: restart presumes abort for transactions without
		// a commit record, so nothing depends on its durability and the
		// locks need not be held across an fsync. The next force covers it.
		// (A file WAL's write still waits while a segment rotation,
		// checkpoint or close drains the log.)
		disk.WriteBatch([][]recovery.Record{{{Kind: recovery.RecordAbort, Txn: t.info.ID}}})
	}
	for _, r := range t.joined {
		r.Abort(&t.info)
	}
	t.finish(StatusAborted)
	t.m.aborts.Add(1)
	obsAborts.Inc()
	life := time.Since(t.started)
	obsAbortLat.Observe(int64(life))
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindAbort, Txn: string(t.info.ID), Dur: life})
	}
}

func (t *Txn) finish(s Status) {
	t.status = s
	if t.m.cfg.Detector != nil {
		t.m.cfg.Detector.Forget(t.info.ID)
	}
}

// Run executes fn inside a transaction with automatic retry: if fn or
// Commit fails with a retryable protocol error (deadlock, timeout,
// timestamp conflict, resource outage), the transaction is aborted and fn
// re-run in a fresh one (a new activity), after a capped exponential
// backoff delay with jitter. Non-retryable errors abort and return. fn may
// return cc-wrapped errors from Invoke directly.
func (m *Manager) Run(fn func(t *Txn) error) error {
	return m.run(context.Background(), fn, false)
}

// RunReadOnly is Run with read-only transactions.
func (m *Manager) RunReadOnly(fn func(t *Txn) error) error {
	return m.run(context.Background(), fn, true)
}

// RunCtx is Run bounded by ctx: an expired or cancelled context stops the
// retry chain promptly (before the next attempt and during backoff waits)
// and returns the context's error. fn itself is not interrupted mid-flight;
// ctx bounds the chain, not an individual attempt.
func (m *Manager) RunCtx(ctx context.Context, fn func(t *Txn) error) error {
	return m.run(ctx, fn, false)
}

// RunReadOnlyCtx is RunCtx with read-only transactions.
func (m *Manager) RunReadOnlyCtx(ctx context.Context, fn func(t *Txn) error) error {
	return m.run(ctx, fn, true)
}

// Pacer paces one externally-driven retry chain with a backoff policy, for
// callers that run their own retry loop (instrumented harnesses that count
// attempts, network clients that retry on server-side shed) instead of Run.
// Each Pacer owns a per-chain jitter generator, exactly like a Run retry
// chain; it is not safe for concurrent use.
type Pacer struct {
	b        Backoff
	mkJitter func() *rand.Rand
	jitter   *rand.Rand
}

// NewPacer returns a pacer for one retry chain under the manager's backoff
// policy, sharing the manager's chain numbering (so manager-run chains and
// externally-paced chains spread across distinct jitter streams).
func (m *Manager) NewPacer() *Pacer {
	return &Pacer{b: m.cfg.Backoff, mkJitter: m.newChainJitter}
}

// pacerChainSeq numbers the retry chains of standalone pacers, so pacers
// created from one Backoff spread across distinct jitter streams instead of
// marching in lockstep.
var pacerChainSeq atomic.Int64

// NewPacer returns a standalone pacer for one retry chain under backoff
// policy b (the zero value selects the defaults), with no Manager required:
// network clients pace their retries against server-side shed with the same
// machinery Run uses against protocol aborts.
func NewPacer(b Backoff) *Pacer {
	(&b).fill()
	return &Pacer{b: b, mkJitter: func() *rand.Rand {
		chain := pacerChainSeq.Add(1)
		return rand.New(rand.NewSource(b.Seed + (chain-1)*-0x61c8864680b583eb))
	}}
}

// Pause waits the backoff delay before retry number retry (0-based),
// honouring ctx. Without pacing, concurrent retriers that lost a conflict
// re-collide immediately; under contention that feedback loop dominates
// throughput long before the protocol does.
func (p *Pacer) Pause(ctx context.Context, retry int) error {
	if p.jitter == nil {
		p.jitter = p.mkJitter()
	}
	return pause(ctx, p.b, p.jitter, retry)
}

// newChainJitter returns the jitter generator for one retry chain, seeded
// deterministically from the configured Backoff.Seed and the chain's
// sequence number. Each chain owning its generator removes the old shared
// jitterMu+rand.Rand, which serialized every concurrently-retrying worker
// on one mutex exactly when the system was most contended. The first chain
// uses Backoff.Seed itself, so single-chain delay sequences are unchanged;
// later chains mix in the chain number (golden-ratio increment, the
// splitmix64 constant) so they spread instead of marching in lockstep.
func (m *Manager) newChainJitter() *rand.Rand {
	chain := m.chainSeq.Add(1)
	seed := m.cfg.Backoff.Seed + (chain-1)*-0x61c8864680b583eb
	return rand.New(rand.NewSource(seed))
}

// retryDelay picks the delay before retry number retry (0-based): equal
// jitter on a capped exponential ceiling — half the ceiling guaranteed,
// half jittered, so delays grow but concurrent retriers still spread out.
func retryDelay(b Backoff, jitter *rand.Rand, retry int) time.Duration {
	ceil := b.Base
	for i := 0; i < retry && ceil < b.Max; i++ {
		ceil *= 2
	}
	if ceil > b.Max {
		ceil = b.Max
	}
	half := ceil / 2
	return half + time.Duration(jitter.Int63n(int64(half)+1))
}

// pause waits the retry delay, honouring ctx.
func pause(ctx context.Context, b Backoff, jitter *rand.Rand, retry int) error {
	d := retryDelay(b, jitter, retry)
	obsBackoffs.Inc()
	obsBackoffLat.Observe(int64(d))
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindBackoff, Dur: d})
	}
	if b.Sleep != nil {
		return b.Sleep(ctx, d)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (m *Manager) run(ctx context.Context, fn func(t *Txn) error, readOnly bool) error {
	var lastErr error
	var jitter *rand.Rand // per-chain, created on first retry
	for attempt := 0; attempt < m.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if jitter == nil {
				jitter = m.newChainJitter()
			}
			if err := pause(ctx, m.cfg.Backoff, jitter, attempt-1); err != nil {
				return fmt.Errorf("tx: %w (after %d attempts, last: %v)", err, attempt, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("tx: %w", err)
		}
		t := m.begin(readOnly)
		err := fn(t)
		if err == nil {
			err = t.Commit()
			if err == nil {
				return nil
			}
		} else {
			t.Abort()
		}
		NoteAbort(err)
		if !cc.Retryable(err) {
			return err
		}
		obsRetries.Inc()
		if obsTrace.Enabled() {
			obsTrace.Record(obs.TraceEvent{Kind: obs.KindRetry, Txn: string(t.info.ID), Note: cc.AbortCause(err)})
		}
		lastErr = err
	}
	obsExhausted.Inc()
	return fmt.Errorf("tx: retries exhausted: %w", lastErr)
}
