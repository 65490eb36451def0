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
	"math"
	"math/rand"
	"slices"
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

// clockBase anchors the runtime's latency clock.
var clockBase = time.Now()

// nanotime reads the latency clock: nanoseconds since clockBase, from the
// monotonic clock alone (time.Since takes one clock read where time.Now
// takes two). A commit reads it four times in memory, five with a WAL,
// a coordinator or an install ticket (see Commit).
var nanotime = func() int64 { return int64(time.Since(clockBase)) }

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
// its prepare floor, is above the floor. Hybrid atomicity also needs the
// source to report its newest timestamp (clockReader): a read-only
// transaction registers the value above it before drawing its own. Static
// atomicity accepts any unique source, skewed ones included (clock.Skewed).
type TimestampSource interface {
	Next() histories.Timestamp
}

// clockReader is implemented by timestamp sources that can report their
// newest issued timestamp without drawing one (clock.Source).
type clockReader interface {
	Now() histories.Timestamp
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
// (dist.RemoteResource, dist.ClusterResource). The runtime gathers the
// sites of a transaction's joined resources into TxnInfo.Participants
// before prepare, so each participant's logged yes-vote names the peers
// that cooperative termination may poll. The site is asked per
// transaction: a placement-routed cluster proxy pins the object's home at
// the transaction's first contact, and a later transaction may find the
// object migrated elsewhere.
type siteReporter interface {
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
	// Hybrid it must be strictly increasing and report its newest
	// timestamp (see TimestampSource).
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

	// The registry. Register inserts into resources under regMu, O(1),
	// giving each resource the next dense registry index. Invoke reads
	// published, an immutable copy of resources, without locking; a
	// resource registered since the copy was taken is found in resources
	// under regMu instead, and after as many such misses as there are
	// resources the reader that draws the last one republishes — so a
	// set-up of n Registers costs O(n), not a copy per insert, and the copy
	// is paid for by the misses that preceded it.
	published atomic.Pointer[map[histories.ObjectID]registered]
	regMu     sync.Mutex
	resources map[histories.ObjectID]registered
	misses    int // lookups published could not answer, since it was taken

	// The snapshot registry (Hybrid only): the values live read-only
	// transactions registered before drawing their timestamps (see
	// beginSnapshot), ascending, under snapMu; snapFloor publishes the
	// oldest, or noSnapshot while none is live, and a committing update
	// loads it into cc.TxnInfo.SnapshotFloor.
	snapMu    sync.Mutex
	snapLive  []histories.Timestamp
	snapFloor atomic.Int64

	// joinSets recycles the join sets of transactions past two objects.
	joinSets sync.Pool

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

// registered is a registry entry: the resource and its dense registry
// index, which a transaction deduplicates its joins by.
type registered struct {
	r   cc.Resource
	idx int32
}

// noSnapshot is the snapshot floor while no read-only transaction is live.
const noSnapshot = math.MaxInt64

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
	if _, ok := cfg.Clock.(clockReader); cfg.Property == Hybrid && !ok {
		return nil, fmt.Errorf("%w: hybrid atomicity needs a Clock that reports its newest timestamp", ErrManagerConfig)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 100
	}
	(&cfg.Backoff).fill()
	m := &Manager{cfg: cfg, resources: make(map[histories.ObjectID]registered)}
	m.published.Store(&map[histories.ObjectID]registered{})
	m.snapFloor.Store(noSnapshot)
	m.joinSets.New = func() any { return new(joinSet) }
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
	m.resources[r.ObjectID()] = registered{r: r, idx: int32(len(m.resources))}
	return nil
}

// resource looks up a registered resource.
func (m *Manager) resource(obj histories.ObjectID) (registered, bool) {
	if reg, ok := (*m.published.Load())[obj]; ok {
		return reg, true
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	reg, ok := m.resources[obj]
	if !ok {
		return registered{}, false
	}
	if m.misses++; m.misses >= len(m.resources) {
		next := maps.Clone(m.resources)
		m.published.Store(&next)
		m.misses = 0
	}
	return reg, true
}

// beginSnapshot registers a hybrid read-only transaction and draws its
// timestamp. Under snapMu it registers the clock's newest timestamp plus
// one, publishes the floor, and only then draws: the registered value is
// at or below the timestamp drawn, and an update that draws its commit
// timestamp after this reader's loads a floor at or below the reader's, so
// it keeps the version the reader reads. An update that loaded the floor
// before the registration drew its commit timestamp before the reader's,
// so below it, and kept that version as the newest below its own floor.
// Registrations under snapMu each draw, so registered values ascend.
func (m *Manager) beginSnapshot() histories.Timestamp {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	m.snapLive = append(m.snapLive, m.cfg.Clock.(clockReader).Now()+1)
	m.snapFloor.Store(int64(m.snapLive[0]))
	return m.cfg.Clock.Next()
}

// endSnapshot unregisters a finished read-only transaction with timestamp
// ts and republishes the floor. Its registered value is the largest one at
// or below ts: its own is at or below ts, and the next registration read
// the clock after ts was drawn, so it is above ts.
func (m *Manager) endSnapshot(ts histories.Timestamp) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	i, found := slices.BinarySearch(m.snapLive, ts)
	if !found {
		i--
	}
	m.snapLive = slices.Delete(m.snapLive, i, i+1)
	floor := int64(noSnapshot)
	if len(m.snapLive) > 0 {
		floor = int64(m.snapLive[0])
	}
	m.snapFloor.Store(floor)
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
	m      *Manager
	info   cc.TxnInfo
	joined []cc.Resource
	// joinedBuf backs joined for the common transaction that touches at
	// most two objects (a transfer), so joining allocates nothing;
	// joinedIdx holds their registry indexes. Past two objects, joined and
	// the indexes move to a join set from the manager's pool.
	joinedBuf [2]cc.Resource
	joinedIdx [2]int32
	joins     *joinSet
	status    Status
	started   int64 // nanotime at Begin
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

// BeginReadOnly starts a read-only transaction under any property: it sets
// cc.TxnInfo.ReadOnly, so every object refuses its mutating operations with
// cc.ErrReadOnly, and its commit waits for no log force. Under hybrid
// atomicity it also draws its snapshot timestamp now; with a ReadRouter its
// reads may be served by replicas. A hybrid read-only transaction holds the
// snapshot floor at its timestamp until it commits or aborts: hybrid
// objects keep every version from the floor on, so one that is abandoned
// without either makes them keep every later version.
func (m *Manager) BeginReadOnly() *Txn { return m.begin(true) }

func (m *Manager) begin(readOnly bool) *Txn {
	seq := m.seq.Add(1)
	t := &Txn{
		m: m,
		info: cc.TxnInfo{
			ID:       cc.TxnID(seq),
			Seq:      seq,
			ReadOnly: readOnly,
		},
		status:  StatusActive,
		started: nanotime(),
	}
	t.joined = t.joinedBuf[:0]
	obsBegins.Inc()
	switch m.cfg.Property {
	case Static:
		t.info.TS = m.cfg.Clock.Next()
	case Hybrid:
		if readOnly {
			t.info.TS = m.beginSnapshot()
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
	reg, ok := t.m.resource(obj)
	if !ok {
		return value.Nil(), fmt.Errorf("%w: %s", ErrNoResource, obj)
	}
	r := reg.r
	if t.info.ReadOnly && t.m.cfg.ReadRouter != nil {
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
	t.join(r, reg.idx)
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

// join adds r, registered at index idx, to the joined resources unless
// the transaction has joined it already.
func (t *Txn) join(r cc.Resource, idx int32) {
	if t.joins == nil {
		for _, j := range t.joinedIdx[:len(t.joined)] {
			if j == idx {
				return
			}
		}
		if n := len(t.joined); n < len(t.joinedBuf) {
			t.joinedIdx[n] = idx
			t.joined = append(t.joined, r)
			return
		}
		t.joins = t.m.joinSets.Get().(*joinSet)
		for _, j := range t.joinedIdx {
			t.joins.add(j)
		}
		t.joined = append(t.joins.joined, t.joined...)
	}
	if t.joins.add(idx) {
		t.joined = append(t.joined, r)
	}
}

// releaseJoins returns a finished transaction's join set to the pool.
// Nothing reads joined once the transaction has finished.
func (t *Txn) releaseJoins() {
	s := t.joins
	if s == nil {
		return
	}
	clear(t.joined)
	s.joined = t.joined[:0]
	clear(s.slots)
	s.n = 0
	t.m.joinSets.Put(s)
	t.joins, t.joined = nil, nil
}

// joinSet holds a transaction's joins past its first two objects: the
// joined resources and a set of their registry indexes, by open addressing
// with linear probing over a power-of-two table of index+1 values (0 marks
// a free slot), kept at most half full. The table doubles as it fills, so
// its size follows the transaction's own object count, not the registry's,
// and an add costs O(1) amortized. Sets are recycled, cleared, through the
// manager's pool, so a warm audit allocates nothing for its joins.
type joinSet struct {
	joined []cc.Resource
	slots  []int32
	n      int
}

// add inserts idx and reports whether it was absent.
func (s *joinSet) add(idx int32) bool {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]int32, max(8, 2*len(old)))
		for _, v := range old {
			if v != 0 {
				s.insert(v)
			}
		}
	}
	if !s.insert(idx + 1) {
		return false
	}
	s.n++
	return true
}

// insert places v (an index plus one) in its probe sequence and reports
// whether it was absent.
func (s *joinSet) insert(v int32) bool {
	mask := len(s.slots) - 1
	// Fibonacci hashing spreads strided index patterns over the table.
	for i := int(uint64(v)*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = v
			return true
		case v:
			return false
		}
	}
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
		t.info.Participants = make([]string, 0, len(t.joined))
		for _, r := range t.joined {
			if sr, ok := r.(siteReporter); ok {
				t.info.Participants = append(t.info.Participants, sr.ParticipantSiteFor(t.info.ID))
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
	// The clock is read at the prepare's start and end and at the install's
	// end; the prepare's end doubles as the install's start unless logging,
	// the coordinator or an install ticket ran in between.
	timed := len(t.joined) > 0
	var prepStart, prepEnd int64
	if timed {
		prepStart = nanotime()
	}
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
	if timed {
		prepEnd = nanotime()
		obsPrepareLat.Observe(prepEnd - prepStart)
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
	// concurrently) need not leave order-independent states. A read-only
	// commit outside two-phase commit draws none: it installs nothing.
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
		if t.info.ReadOnly && !t.began2pc {
			// A read-only commit is logged like an abort: written, never
			// waited for, a failed or torn write ignored, and no install
			// ticket drawn. It needs no force because it has no effects,
			// and everything it read is durable already: updates install
			// only after their commit records are. The records are still
			// written so that restart's redo re-checks every logged read
			// result; a lost one makes restart presume an abort, which
			// changes no state.
			t.m.cfg.WAL.WriteBatch([][]recovery.Record{recs})
		} else if err := t.m.wal.submit(recs, func() {
			reserve()
			recs[len(recs)-1].TS = cts
		}); err != nil {
			// A failed (or torn) log write before the commit record aborts
			// the transaction: the commit record is the atomic commit
			// point, and nothing before it may be considered durable.
			// Already-appended intentions without a commit record are
			// ignored by Restart.
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
	if hybridUpdate {
		// One load, after the commit timestamp is drawn (see beginSnapshot).
		t.info.SnapshotFloor = min(histories.Timestamp(t.m.snapFloor.Load()), cts)
	}
	installStart := prepEnd
	if timed && (t.m.wal != nil || t.began2pc || hasTicket) {
		installStart = nanotime()
	}
	for _, r := range t.joined {
		r.Commit(&t.info, cts)
	}
	if hasTicket {
		t.m.installSeq.Done(ticket)
	}
	end := nanotime()
	if timed {
		obsInstallLat.Observe(end - installStart)
	}
	t.finish(StatusCommitted)
	t.m.commits.Add(1)
	obsCommits.Inc()
	life := time.Duration(end - t.started)
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
	life := time.Duration(nanotime() - t.started)
	obsAbortLat.Observe(int64(life))
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindAbort, Txn: string(t.info.ID), Dur: life})
	}
}

func (t *Txn) finish(s Status) {
	t.status = s
	if t.info.ReadOnly && t.m.cfg.Property == Hybrid {
		t.m.endSnapshot(t.info.TS)
	}
	t.releaseJoins()
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

// RunReadOnly is Run with read-only transactions (see BeginReadOnly). A
// mutating operation fails with cc.ErrReadOnly, which is not retried.
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

// Pacer paces one retry chain with a backoff policy: Run's own retries,
// and callers that run their own retry loop (instrumented harnesses that
// count attempts, network clients that retry on server-side shed). Each
// Pacer owns its chain's jitter generator, created at its first Pause; it
// is not safe for concurrent use.
type Pacer struct {
	b      Backoff
	chains *atomic.Int64 // numbers the chains that share b's seed
	jitter *rand.Rand
}

// NewPacer returns a pacer for one retry chain under the manager's backoff
// policy, sharing the manager's chain numbering (so manager-run chains and
// externally-paced chains spread across distinct jitter streams).
func (m *Manager) NewPacer() *Pacer {
	return &Pacer{b: m.cfg.Backoff, chains: &m.chainSeq}
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
	return &Pacer{b: b, chains: &pacerChainSeq}
}

// Pause waits the backoff delay before retry number retry (0-based),
// honouring ctx. Without pacing, concurrent retriers that lost a conflict
// re-collide immediately; under contention that feedback loop dominates
// throughput long before the protocol does.
//
// The chain's jitter generator is seeded deterministically from
// Backoff.Seed and the chain's sequence number, so concurrent retriers
// never serialize on one shared generator. The first chain uses
// Backoff.Seed itself; later chains mix in the chain number (golden-ratio
// increment, the splitmix64 constant) so they spread instead of marching
// in lockstep.
func (p *Pacer) Pause(ctx context.Context, retry int) error {
	if p.jitter == nil {
		chain := p.chains.Add(1)
		p.jitter = rand.New(rand.NewSource(p.b.Seed + (chain-1)*-0x61c8864680b583eb))
	}
	d := retryDelay(p.b, p.jitter, retry)
	obsBackoffs.Inc()
	obsBackoffLat.Observe(int64(d))
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindBackoff, Dur: d})
	}
	if p.b.Sleep != nil {
		return p.b.Sleep(ctx, d)
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

func (m *Manager) run(ctx context.Context, fn func(t *Txn) error, readOnly bool) error {
	var lastErr error
	var pacer *Pacer // created on the first retry
	for attempt := 0; attempt < m.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if pacer == nil {
				pacer = m.NewPacer()
			}
			if err := pacer.Pause(ctx, attempt-1); err != nil {
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
