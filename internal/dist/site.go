package dist

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/conflict"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability for site lifecycle, the at-most-once reply cache, and
// recovery's in-doubt resolution.
var (
	obsSiteCrashes    = obs.Default.Counter("dist.site.crashes")
	obsSiteRecoveries = obs.Default.Counter("dist.site.recoveries")
	obsCacheHits      = obs.Default.Counter("dist.reply.cache.hits")
	obsEpochOrphans   = obs.Default.Counter("dist.epoch.orphans")
	obsInDoubtCommits = obs.Default.Counter("dist.recover.indoubt.commits")
	obsInDoubtAborts  = obs.Default.Counter("dist.recover.indoubt.aborts")
	obsAbandonedSwept = obs.Default.Counter("dist.abandoned.swept")
	obsSiteTrace      = obs.Default.Tracer()
)

// ErrOrphaned reports a message carrying a site epoch older than the site's
// current one: the sender is an orphan of a pre-crash activity (§6) — the
// crash already wiped the state its message depends on, so executing it
// would half-apply a dead transaction. It wraps cc.ErrUnavailable (the
// retry starts a fresh transaction in the new epoch).
var ErrOrphaned = fmt.Errorf("dist: orphaned message from a pre-crash epoch: %w", cc.ErrUnavailable)

// ErrRefused reports an invoke or prepare for a transaction this site has
// already resolved — refused during cooperative termination (a peer asked
// about the transaction, this site had no record of it, and it durably
// promised never to vote yes) or unilaterally aborted as abandoned. It
// wraps cc.ErrUnavailable (retryable).
var ErrRefused = fmt.Errorf("dist: refused: transaction already resolved at site: %w", cc.ErrUnavailable)

// ErrStillInDoubt reports a recovery that could not resolve every in-doubt
// transaction — the coordinator is down or partitioned away and no peer
// knows the outcome. The site stays down; retry Recover once the partition
// heals or the coordinator comes back. It wraps cc.ErrUnavailable.
var ErrStillInDoubt = fmt.Errorf("dist: in-doubt transactions unresolved: %w", cc.ErrUnavailable)

// ErrMoved reports a message for an object this site is not (or no longer)
// home to — the sender's placement view is stale, typically because a
// shard migration committed since it was fetched. It wraps cc.ErrMoved
// (and transitively cc.ErrUnavailable): the transaction aborts, the client
// refreshes placement, and the retry routes to the new home.
var ErrMoved = fmt.Errorf("dist: object is not homed at this site: %w", cc.ErrMoved)

// ErrMigrating reports an operation refused because the object is frozen
// by an in-flight shard migration (or the migration's drain found the
// object still busy). It wraps cc.ErrUnavailable: the freeze resolves when
// the migration commits or aborts, so the retry either lands here again or
// is told ErrMoved and re-routes.
var ErrMigrating = fmt.Errorf("dist: object is migrating: %w", cc.ErrUnavailable)

// SiteConfig configures a site.
type SiteConfig struct {
	// ID names the site. Required.
	ID SiteID
	// Network to attach to. Required.
	Network *Network
	// Coordinators names the coordinator pool in pool order: an in-doubt
	// recovery queries the member owning the transaction first (the same
	// hash-by-id assignment Pool uses for decisions) during cooperative
	// termination. Required: at least one.
	Coordinators []SiteID
	// Sink receives history events from the site's objects.
	Sink cc.EventSink
	// WaitTimeout, when positive, bounds every blocked lock wait at the
	// site's objects. Under fault injection a crash can orphan granted
	// locks until the next recovery; a wait timeout turns the resulting
	// indefinite blocking into retryable timeouts.
	WaitTimeout time.Duration
	// Injector, when set, attaches fault injection to the site: crash
	// windows inside the commit protocol (fault.SiteCrashPrepare,
	// fault.SiteCrashCommitBeforeLog, fault.SiteCrashCommitAfterLog) and
	// stable-storage faults on the site's disk (fault.DiskAppendFail,
	// fault.DiskAppendTorn, fault.DiskCheckpointTorn).
	Injector *fault.Injector
	// Disk substitutes the site's stable storage. Nil selects a fresh
	// in-memory recovery.Disk; pass a recovery.FileWAL (opened on the
	// site's own directory) for real durability. Limit: a FileWAL encodes
	// object states only for the objects named in FileWALOptions.Specs at
	// open, so such a site cannot take in an object migrated or replicated
	// to it later (the migrate-in vote and the replica seed log the state
	// and fail) — DESIGN §13.
	Disk recovery.Backend
}

// Site hosts locking-protocol objects, a write-ahead log on its own
// stable storage, and crash/recover machinery. Objects at a site use
// deferred update (intentions lists), the recovery technique the paper
// pairs with the locking protocols.
//
// A crash bumps the site's epoch. Every message carries the epoch the
// client first observed; a mismatch means the crash wiped state the
// message depends on, and the site refuses with ErrOrphaned instead of
// half-applying an orphaned activity.
type Site struct {
	id          SiteID
	net         *Network
	coords      []SiteID // coordinator pool, in pool order
	sink        cc.EventSink
	waitTimeout time.Duration
	inj         *fault.Injector

	// voteMu serialises yes-votes against termination-protocol refusals:
	// a peer-outcome query that finds no trace of a transaction durably
	// refuses it under voteMu, and vote checks for the refusal, appends its
	// intentions and registers the prepared half under voteMu, so a refusal
	// and a yes-vote for the same transaction cannot interleave. Lock
	// order: voteMu before mu.
	voteMu sync.Mutex

	// recoverMu serialises whole recovery passes.
	recoverMu sync.Mutex

	mu         sync.Mutex
	up         atomic.Bool // written under mu; exchange's up-check reads it without
	epoch      uint64
	disk       recovery.Backend // stable: survives crashes
	types      map[histories.ObjectID]adts.Type
	guards     map[histories.ObjectID]func(adts.Type) locking.Guard
	seedHosted map[histories.ObjectID]bool            // stable: objects seeded here (pre-migration)
	objects    map[histories.ObjectID]*locking.Object // volatile
	detector   *locking.Detector                      // volatile
	txns       map[histories.ActivityID]*siteTxn      // volatile: one record per live transaction
	freeTxns   freeList[siteTxn]                      // records decided and reset, for reuse
	decided    *decidedTable                          // volatile outcomes, authoritative while up (rebuilt from log)
	crashes    int64                                  // total crashes, for diagnostics

	// Migration state. hosted is the volatile hosting view (rebuilt from
	// the log at recovery: seedHosted plus committed migrations); homedAt
	// records the placement version at which an object migrated in, so a
	// request carrying an older placement view is refused as moved;
	// migrating freezes an object under an in-flight migration
	// transaction. A migration's copied-in state waits in its record.
	hosted    map[histories.ObjectID]bool
	homedAt   map[histories.ObjectID]uint64
	migrating map[histories.ObjectID]histories.ActivityID

	// Replica-group state. follows is the stable follow catalog (like
	// types/guards it survives crashes: a recovering follower rebuilds its
	// copies from the WAL for exactly these objects); replicas holds the
	// volatile timestamped version logs (see replica.go).
	follows  map[histories.ObjectID]bool
	replicas map[histories.ObjectID]*ccrt.VersionLog
}

// stagedImport is the copied object state a migration's import handler
// stages at the destination before prepare makes it durable.
type stagedImport struct {
	obj   histories.ObjectID
	state spec.State
	typ   adts.Type
}

// half is one yes-vote: the part of a transaction this site prepared at one
// object. A half with no dir is a client half — the object's lock table
// holds the intentions and its Commit or Abort installs the outcome. A
// migration half (dir MigrateOut or MigrateIn) installs a hosting change
// instead.
type half struct {
	obj    histories.ObjectID
	dir    recovery.MigrateDir
	ringv  uint64
	staged *stagedImport // MigrateIn only: the baseline to adopt
}

// siteTxn is the site's record of one live transaction: the objects it
// touched here, its yes-votes once it has voted, and the replies to its
// invokes. The first invoke, export, import or vote creates the record;
// the transaction's decision deletes it (decidedLocked), leaving only the
// decided entry, so the reply cache is bounded by the live transactions.
// A deleted record is reset and reused by a later transaction, so code
// reads a record only under s.mu, looking it up again after each release.
// A peer's refusal is the one decision that keeps the record: the refused
// transaction may still hold locks here, and the sweeper releases them
// from it (AbortAbandoned).
type siteTxn struct {
	objects  []histories.ObjectID  // touched here: one or two, so a slice beats a map
	inline   [2]histories.ObjectID // objects' first backing array
	lastSeen time.Time             // last invoke, export or import: the sweeper's idle clock
	staged   *stagedImport         // a migration's copied-in object, from import to vote

	// Set by the yes-votes. Until the first, the site may abort the
	// transaction on its own authority; after it, only the outcome may.
	halves       []half   // the votes still undecided, one per object
	halfInline   [1]half  // halves' first backing array
	participants []string // cc.TxnInfo.Participants, shared: frozen at Commit
	preparedAt   time.Time
	attempts     int       // failed termination-protocol attempts
	nextTry      time.Time // capped-backoff gate for the next attempt

	// replies memoises the transaction's invokes by request id. Invoke is
	// the one handler that is not idempotent while its transaction lives,
	// so a retransmitted or duplicated invoke is answered from here; every
	// other handler repeats harmlessly until the decision and is refused
	// or does nothing after it.
	replies     []invokeReply
	replyInline [1]invokeReply // replies' first backing array
}

// invokeReply is one memoised invoke result.
type invokeReply struct {
	id  uint64
	v   value.Value
	err error
}

// voted reports whether the transaction holds a yes-vote here. A nil
// record has none.
func (t *siteTxn) voted() bool { return t != nil && len(t.halves) > 0 }

// at returns the index of the half voted at obj, or -1.
func (t *siteTxn) at(obj histories.ObjectID) int {
	if t == nil {
		return -1
	}
	return slices.IndexFunc(t.halves, func(h half) bool { return h.obj == obj })
}

// reply returns the memoised reply to request id.
func (t *siteTxn) reply(id uint64) (invokeReply, bool) {
	if t != nil {
		for _, r := range t.replies {
			if r.id == id {
				return r, true
			}
		}
	}
	return invokeReply{}, false
}

// touch records that the transaction touched obj here.
func (t *siteTxn) touch(obj histories.ObjectID) {
	if !slices.Contains(t.objects, obj) {
		t.objects = append(t.objects, obj)
	}
}

// NewSite creates a site and attaches it to the network.
func NewSite(cfg SiteConfig) (*Site, error) {
	if cfg.ID == "" || cfg.Network == nil || len(cfg.Coordinators) == 0 {
		return nil, errors.New("dist: SiteConfig needs ID, Network and at least one coordinator")
	}
	if cfg.Disk == nil {
		cfg.Disk = &recovery.Disk{}
	}
	s := &Site{
		id:          cfg.ID,
		net:         cfg.Network,
		coords:      append([]SiteID(nil), cfg.Coordinators...),
		sink:        cfg.Sink,
		waitTimeout: cfg.WaitTimeout,
		inj:         cfg.Injector,
		epoch:       1,
		disk:        cfg.Disk,
		types:       make(map[histories.ObjectID]adts.Type),
		guards:      make(map[histories.ObjectID]func(adts.Type) locking.Guard),
		seedHosted:  make(map[histories.ObjectID]bool),
		objects:     make(map[histories.ObjectID]*locking.Object),
		detector:    locking.NewDetector(),
		txns:        make(map[histories.ActivityID]*siteTxn),
		decided:     newDecidedTable(),
		hosted:      make(map[histories.ObjectID]bool),
		homedAt:     make(map[histories.ObjectID]uint64),
		migrating:   make(map[histories.ObjectID]histories.ActivityID),
		follows:     make(map[histories.ObjectID]bool),
		replicas:    make(map[histories.ObjectID]*ccrt.VersionLog),
	}
	s.up.Store(true)
	s.disk.SetInjector(cfg.Injector)
	if err := cfg.Network.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the site identifier.
func (s *Site) ID() SiteID { return s.id }

// Up reports whether the site is running. It takes no lock: exchange
// asks it before every delivery.
func (s *Site) Up() bool { return s.up.Load() }

// Epoch returns the site's current epoch (bumped at every crash).
func (s *Site) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Disk exposes the site's stable storage (for tests).
func (s *Site) Disk() recovery.Backend { return s.disk }

// AddObject hosts a new object at the site. guard builds the conflict rule
// from the type (so recovery can rebuild it — crucially, a recovering site
// re-invokes the factory, so a cascade engine's decision cache is rebuilt
// fresh rather than resurrected across the crash); nil selects the full
// tiered conflict cascade for the type.
func (s *Site) AddObject(id histories.ObjectID, t adts.Type, guard func(adts.Type) locking.Guard) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	if _, dup := s.types[id]; dup {
		return fmt.Errorf("dist: duplicate object %s at %s", id, s.id)
	}
	if guard == nil {
		guard = func(t adts.Type) locking.Guard {
			return conflict.ForType(t)
		}
	}
	o, err := s.buildObject(id, t, guard, nil)
	if err != nil {
		return err
	}
	s.types[id] = t
	s.guards[id] = guard
	s.seedHosted[id] = true
	s.hosted[id] = true
	s.objects[id] = o
	return nil
}

func (s *Site) buildObject(id histories.ObjectID, t adts.Type, guard func(adts.Type) locking.Guard, initial spec.State) (*locking.Object, error) {
	return locking.New(locking.Config{
		ID:          id,
		Type:        t,
		Guard:       guard(t),
		Detector:    s.detector,
		WaitTimeout: s.waitTimeout,
		Sink:        s.sink,
		Initial:     initial,
	})
}

// Crash takes the site down, discarding every volatile structure: the
// transaction records (with their votes and cached replies), lock tables,
// committed in-memory states, the outcome cache. Only the disk survives. The epoch is
// bumped so messages from pre-crash activities are detected as orphans.
func (s *Site) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.up.Store(false)
	s.epoch++
	s.objects = nil
	s.detector = nil
	s.txns = nil
	s.decided = nil
	s.hosted = nil
	s.homedAt = nil
	s.migrating = nil
	s.replicas = nil // follows survives: it is catalog, not state
	s.crashes++
	obsSiteCrashes.Inc()
	if obsSiteTrace.Enabled() {
		obsSiteTrace.Record(obs.TraceEvent{Kind: obs.KindCrash, Site: string(s.id)})
	}
}

// Crashes returns how many times the site has crashed.
func (s *Site) Crashes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}

// admitLocked refuses, under s.mu, a delivery from a pre-crash epoch
// (ErrOrphaned) and one to a down site. expect is the epoch the sender
// pinned at this site (zero: no expectation).
func (s *Site) admitLocked(expect uint64) error {
	if expect != 0 && expect != s.epoch {
		obsEpochOrphans.Inc()
		return fmt.Errorf("%w: %s is at epoch %d, message from epoch %d", ErrOrphaned, s.id, s.epoch, expect)
	}
	if !s.up.Load() {
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	return nil
}

// enter is a delivery's entry section: every check a handler makes, and
// every registration, before it acts, under one hold of s.mu. The delivery
// is admitted (see admitLocked), a transaction this site already decided is
// refused — a late or repeated message of a resolved transaction must not
// re-acquire locks, re-freeze an object or re-stage a copy — and check runs
// the message kind's own checks on the transaction's record (nil: none
// yet). A refusal here executed nothing.
func (s *Site) enter(d delivery, txn histories.ActivityID, check func(t *siteTxn) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(d.expect); err != nil {
		return err
	}
	if _, done := s.decided.get(txn); done {
		return fmt.Errorf("%w: %s at %s", ErrRefused, txn, s.id)
	}
	return check(s.txns[txn])
}

// registerLocked records that txn touched obj here, creating its record
// (t: the record, or nil), and restarts its idle clock. Under s.mu, on a
// running site.
func (s *Site) registerLocked(t *siteTxn, txn histories.ActivityID, obj histories.ObjectID) *siteTxn {
	if t == nil {
		t = s.recordLocked(txn)
	}
	t.touch(obj)
	t.lastSeen = time.Now()
	return t
}

// recordLocked returns txn's record, creating it — from a recycled record
// when one is free. Under s.mu, on a running site.
func (s *Site) recordLocked(txn histories.ActivityID) *siteTxn {
	t := s.txns[txn]
	if t == nil {
		t = s.freeTxns.take()
		t.objects, t.halves, t.replies = t.inline[:0], t.halfInline[:0], t.replyInline[:0]
		s.txns[txn] = t
	}
	return t
}

// decidedLocked caches txn's outcome and deletes its record, replies and
// all, resetting it for reuse by a later transaction. Every path that
// installs an outcome at a running site ends here, under s.mu. Recycling
// is safe because no code keeps a *siteTxn across a release of s.mu: every
// access looks the record up again under the lock, so none reaches a
// record after its transaction's decision.
func (s *Site) decidedLocked(txn histories.ActivityID, commit bool) {
	s.decided.set(txn, commit)
	if t := s.txns[txn]; t != nil {
		delete(s.txns, txn)
		s.freeTxns.put(t)
	}
}

// freeListCap bounds a free list: records are recycled at a decision and
// taken again at a transaction's first message, so a few cover the churn
// (the bound an object's entry table keeps too, ccrt.Table).
const freeListCap = 4

// freeList keeps up to freeListCap reset records of type T for reuse.
type freeList[T any] struct {
	free [freeListCap]*T
	n    int
}

// take returns a zero record: a recycled one, or a new one.
func (f *freeList[T]) take() *T {
	if f.n == 0 {
		return new(T)
	}
	f.n--
	p := f.free[f.n]
	f.free[f.n] = nil
	return p
}

// put resets p to the zero record and keeps it for reuse while there is
// room. The caller must know that nothing else still holds p.
func (f *freeList[T]) put(p *T) {
	var zero T
	*p = zero
	if f.n < freeListCap {
		f.free[f.n] = p
		f.n++
	}
}

// Checkpoint snapshots the site's committed states into its write-ahead
// log and compacts the log prefix the snapshot summarises, returning the
// estimated bytes reclaimed.
func (s *Site) Checkpoint() (int64, error) {
	s.mu.Lock()
	if !s.up.Load() {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	specs := s.specsLocked()
	seed := make(map[histories.ObjectID]bool, len(s.seedHosted))
	for id, h := range s.seedHosted {
		seed[id] = h
	}
	s.mu.Unlock()
	return s.disk.CheckpointHosted(specs, seed)
}

// specsLocked returns the serial spec of every object in the site's catalog.
func (s *Site) specsLocked() map[histories.ObjectID]spec.SerialSpec {
	specs := make(map[histories.ObjectID]spec.SerialSpec, len(s.types))
	for id, t := range s.types {
		specs[id] = t.Spec
	}
	return specs
}

// Recover brings the site back in three phases, all reading one fold of the
// write-ahead log. First the fold names the in-doubt transactions: logged
// intentions with no outcome. Second, each is resolved through the
// cooperative termination protocol — coordinator first, then peer
// participants, then presumed abort when the coordinator durably knows
// nothing or every peer unanimously refuses (see resolveOutcome); if any
// transaction stays unresolved (coordinator down or partitioned, peers in
// doubt too) the site stays down and Recover returns ErrStillInDoubt so the
// caller can retry after the heal. Third, the resolved outcomes are appended
// to the log (and added to the fold), and every volatile structure is
// rebuilt from the fold: committed states and hosting by redo, the outcome
// table, migrate-in placement versions, replica watermarks. A down site's
// handlers refuse before they log anything, so the fold read at the top,
// plus the outcomes added to it, stays equal to the log. This is the only
// place a site reads its log back: once up, it answers every outcome
// question from the tables rebuilt here (see outcomeOf).
func (s *Site) Recover() error {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	if s.Up() {
		return fmt.Errorf("dist: site %s is already up", s.id)
	}
	// Under voteMu: a vote of the crashed epoch either appended already or
	// will find the epoch moved and vote no (see vote).
	s.voteMu.Lock()
	fold := recovery.FoldLog(s.disk.Records())
	s.voteMu.Unlock()

	// Cooperative termination runs outside s.mu (it talks to the network).
	type resolution struct {
		t      *recovery.TxnFate
		commit bool
		path   string
	}
	var resolved []resolution
	unresolved := 0
	for _, t := range fold.InDoubt() {
		commit, path, ok := s.resolveOutcome(t.Txn, t.Participants)
		if !ok {
			unresolved++
			continue
		}
		resolved = append(resolved, resolution{t: t, commit: commit, path: path})
	}

	// Make the resolved outcomes durable (even when others remain
	// unresolved — durable progress shrinks the next attempt), then
	// rebuild. Recovery's log writes must not fail mid-resolution, so the
	// injector is detached for the duration (a real system retries its
	// recovery pass until stable storage accepts it).
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk.SetInjector(nil)
	defer s.disk.SetInjector(s.inj)
	for _, res := range resolved {
		rec := recovery.OutcomeRecord(res.t.Txn, res.commit)
		if err := s.disk.Append(rec); err != nil {
			return fmt.Errorf("dist: recovering %s: %w", s.id, err)
		}
		fold.Add(rec)
		obs.Default.Counter("dist.indoubt.resolved." + res.path).Inc()
		if !res.commit {
			obsInDoubtAborts.Inc()
			continue
		}
		obsInDoubtCommits.Inc()
		// The transaction is durably committed (coordinator or peer
		// decision + our logged intentions) but this site crashed before
		// installing it, so no commit event was ever emitted here. Record
		// it now: nothing can have read the redone effects before this
		// point, so the late commit event is a valid observation.
		// Migration halves carry no client calls: they produce no history
		// events, so no commit event is owed either.
		for _, obj := range res.t.Objects {
			if res.t.Migrate[obj] == recovery.MigrateNone {
				s.sink.Emit(histories.Commit(obj, res.t.Txn))
			}
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%w: site %s: %d transaction(s) still in doubt", ErrStillInDoubt, s.id, unresolved)
	}
	if err := s.rebuildLocked(fold); err != nil {
		return fmt.Errorf("dist: recovering %s: %w", s.id, err)
	}
	s.up.Store(true)
	obsSiteRecoveries.Inc()
	if obsSiteTrace.Enabled() {
		obsSiteTrace.Record(obs.TraceEvent{Kind: obs.KindRecover, Site: string(s.id)})
	}
	return nil
}

// rebuildLocked rebuilds every volatile structure of the site from the fold
// of its log, under s.mu.
func (s *Site) rebuildLocked(fold *recovery.Fold) error {
	states, hosted, err := fold.Redo(s.specsLocked(), s.seedHosted)
	if err != nil {
		return err
	}
	s.detector = locking.NewDetector()
	s.objects = make(map[histories.ObjectID]*locking.Object, len(s.types))
	s.txns = make(map[histories.ActivityID]*siteTxn)
	s.decided = decidedFrom(fold.Decided())
	s.hosted = hosted
	// The placement version each hosted object migrated in at. Compaction
	// may have dropped the migrate-in record; the version then reverts to
	// zero, which only widens the accepted placement range — safe, because
	// hosting itself (the check that refuses the wrong home) is
	// checkpoint-durable.
	s.homedAt = fold.HomedAt()
	for id := range s.homedAt {
		if !hosted[id] {
			delete(s.homedAt, id)
		}
	}
	s.migrating = make(map[histories.ObjectID]histories.ActivityID)
	for id, t := range s.types {
		if !hosted[id] {
			// The object's schema stays in the catalog (its pre-migration
			// log records still replay through it) but the object lives at
			// its new home now.
			continue
		}
		o, err := s.buildObject(id, t, s.guards[id], states[id])
		if err != nil {
			return fmt.Errorf("object %s: %w", id, err)
		}
		s.objects[id] = o
	}
	// Rebuild follower copies: the redo folded every committed ReplicaIn
	// record (seed baseline + deliveries) into states, and the watermark is
	// the newest committed delivery timestamp, so the version log collapses
	// to a single version at the watermark — snapshot reads below it refuse
	// with ErrReplicaLag until fresher deliveries rebuild history. An object
	// whose seed never committed (crash between the seed's two appends) has
	// no replayed state; the delivery worker reseeds it.
	s.replicas = make(map[histories.ObjectID]*ccrt.VersionLog)
	marks := fold.Watermarks()
	for id := range s.follows {
		if st, ok := states[id]; ok {
			s.replicas[id] = baselineLog(marks[id], st)
		}
	}
	return nil
}

// object looks up a hosted object on a running site.
func (s *Site) object(id histories.ObjectID) (*locking.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return nil, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("dist: no object %s at %s", id, s.id)
	}
	return o, nil
}

// routedLocked looks up an object for a placement-routed message, under
// s.mu: the site must currently be home to the object, and the request's
// placement version rv (zero: unversioned) must not predate the migration
// that brought the object here — either way the sender's placement view is
// stale and the request is refused with ErrMoved rather than executed at
// the wrong home.
func (s *Site) routedLocked(id histories.ObjectID, rv uint64) (*locking.Object, error) {
	if !s.hosted[id] {
		if _, known := s.types[id]; known {
			return nil, fmt.Errorf("%w: %s at %s", ErrMoved, id, s.id)
		}
		return nil, fmt.Errorf("dist: no object %s at %s", id, s.id)
	}
	if rv != 0 && rv < s.homedAt[id] {
		return nil, fmt.Errorf("%w: %s at %s homed at placement %d, request carries %d", ErrMoved, id, s.id, s.homedAt[id], rv)
	}
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("dist: no object %s at %s", id, s.id)
	}
	return o, nil
}

// frozenLocked refuses an operation on an object frozen by another
// transaction's in-flight migration, under s.mu. An invoke checks it in the
// section that registers the invoker, and the migration's drain scan and
// freeze share one section too: either the invoker registers first and
// the drain sees it (the migration is told busy), or the freeze lands
// first and the invoker sees it — never both proceeding.
func (s *Site) frozenLocked(obj histories.ObjectID, txn histories.ActivityID) error {
	if owner, frozen := s.migrating[obj]; frozen && owner != txn {
		return fmt.Errorf("%w: %s at %s (frozen by %s)", ErrMigrating, obj, s.id, owner)
	}
	return nil
}

// hostsObject reports whether the site currently hosts obj and the
// placement version it became home at — the answer to a placement
// reconciliation query.
func (s *Site) hostsObject(obj histories.ObjectID) (bool, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() || !s.hosted[obj] {
		return false, 0
	}
	return true, s.homedAt[obj]
}

// HostedObjects returns the objects this running site is currently home
// to, sorted. A cluster adopting the site reads its seeded placement from
// here.
func (s *Site) HostedObjects() []histories.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []histories.ObjectID
	for id, h := range s.hosted {
		if h {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- server-side message handlers ---------------------------------------
//
// Every handler takes the delivery it answers (see delivery) and runs its
// checks in one entry section (see enter). The lock sections per message
// kind: an invoke takes s.mu twice (enter, then leave, which memoises the
// reply and asks whether the transaction was decided meanwhile) and a
// third time only when it was; a prepare three times (enter and vote's
// two); a commit or abort twice (decide); an export or import once.

// handleInvoke executes one invocation. seq is the number of calls the
// client believes the transaction has completed at this object; if the
// site's count disagrees, a crash wiped the transaction's volatile
// intentions between its operations, and executing further calls would let
// a partial transaction commit — refuse with the retryable ErrStaleTxn
// instead.
func (s *Site) handleInvoke(d delivery, obj histories.ObjectID, txn *cc.TxnInfo, inv spec.Invocation, seq int, rv uint64) (value.Value, error) {
	var (
		o      *locking.Object
		r      invokeReply
		cached bool
	)
	err := s.enter(d, txn.ID, func(t *siteTxn) (err error) {
		if r, cached = t.reply(d.id); cached {
			obsCacheHits.Inc() // a repeat of an invoke already answered
			return nil
		}
		if o, err = s.routedLocked(obj, rv); err != nil {
			return err
		}
		if err = s.frozenLocked(obj, txn.ID); err != nil {
			return err
		}
		s.registerLocked(t, txn.ID, obj)
		return nil
	})
	if cached {
		return r.v, r.err
	}
	if err != nil {
		return value.Nil(), err
	}
	v := value.Nil()
	if got := o.CallCount(txn); got != seq {
		err = fmt.Errorf("%w: %s at %s has %d of %d calls", ErrStaleTxn, txn.ID, s.id, got, seq)
	} else {
		v, err = o.Invoke(txn, inv)
	}
	if s.leave(d, txn.ID, v, err) {
		// The site resolved this transaction (swept it, or refused it to a
		// peer) while the invoke was in flight. Its freshly granted locks
		// would leak, and so would the detector entry a wait inside the
		// invoke left behind after the sweeper's Forget: undo both and
		// refuse.
		if err == nil {
			o.Abort(txn)
			err = fmt.Errorf("%w: invoke by %s at %s", ErrRefused, txn.ID, s.id)
		}
		s.forgetTxn(txn.ID)
		return value.Nil(), err
	}
	return v, err
}

// leave memoises an invoke's reply in its transaction's record, and
// reports instead whether the transaction was decided while the invoke ran.
func (s *Site) leave(d delivery, txn histories.ActivityID, v value.Value, err error) (decided bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, decided = s.decided.get(txn); !decided {
		if t := s.txns[txn]; t != nil {
			t.replies = append(t.replies, invokeReply{id: d.id, v: v, err: err})
		}
	}
	return decided
}

// forgetTxn drops txn from the site's deadlock detector.
func (s *Site) forgetTxn(txn histories.ActivityID) {
	s.mu.Lock()
	det := s.detector
	s.mu.Unlock()
	if det != nil {
		det.Forget(txn)
	}
}

// handlePrepare is a client transaction's vote at obj: the intentions the
// object's lock table holds are forced to the site's log (see vote). expect
// is the client's count of the transaction's completed calls here; a
// mismatch means a crash wiped part of the transaction, so the site votes
// no.
func (s *Site) handlePrepare(d delivery, obj histories.ObjectID, txn *cc.TxnInfo, expect int, rv uint64) error {
	var o *locking.Object
	var epoch uint64
	if err := s.enter(d, txn.ID, func(*siteTxn) (err error) {
		epoch = s.epoch
		if o, err = s.routedLocked(obj, rv); err != nil {
			return err
		}
		return s.frozenLocked(obj, txn.ID)
	}); err != nil {
		return err
	}
	calls := o.PendingCalls(txn)
	if len(calls) != expect {
		return fmt.Errorf("%w: %s at %s has %d of %d calls at prepare", ErrStaleTxn, txn.ID, s.id, len(calls), expect)
	}
	if err := o.Prepare(txn); err != nil {
		return err
	}
	err := s.vote(txn, epoch, recovery.Record{Object: obj, Calls: calls}, fault.SiteCrashPrepare, nil)
	if errors.Is(err, ErrRefused) {
		o.Abort(txn)
	}
	return err
}

// vote is the participant's yes-vote, for a client half and a migration
// half alike: rec — the half's intentions — is forced to the site's log
// with the participant list, so an in-doubt recovery knows which peers to
// poll, and the half joins the transaction's record. A failed or torn
// append votes no: an unlogged yes-vote would let a commit decision outrun
// the intentions that make it redoable. A transaction this site already
// resolved (an abort applied, or a refusal promised to a querying peer) is
// voted no under voteMu, so a yes-vote can never interleave with the
// refusal that forbids it. A half already voted is voted yes again without
// a second record, so a retransmitted prepare is harmless. The half joins
// the record before voteMu is released: an outcome query, which answers
// from the volatile tables alone, then never finds a logged yes-vote
// missing from them. crash is the caller's window after the vote: it is
// durable but never reaches the coordinator, leaving the transaction in
// doubt here for the cooperative termination protocol.
//
// epoch is the epoch the half's volatile state (the object's intentions, a
// freeze, a staged copy) was read in. A site that crashed since votes no:
// the state the record would make durable is gone, and a recovery may
// already have read the log without it and rebuilt its tables. Recover
// reads its log under voteMu, so a vote that finds the epoch unchanged has
// appended before any recovery of a later crash reads the log, and that
// recovery finds the vote in doubt.
func (s *Site) vote(txn *cc.TxnInfo, epoch uint64, rec recovery.Record, crash fault.Point, staged *stagedImport) error {
	rec.Kind, rec.Txn, rec.Participants = recovery.RecordIntentions, txn.ID, txn.Participants
	s.voteMu.Lock()
	defer s.voteMu.Unlock()
	s.mu.Lock()
	_, decided := s.decided.get(txn.ID)
	moved := !s.up.Load() || s.epoch != epoch
	again := s.txns[txn.ID].at(rec.Object) >= 0
	s.mu.Unlock()
	switch {
	case moved:
		return fmt.Errorf("%w: %s crashed during the vote of %s", ErrOrphaned, s.id, txn.ID)
	case decided:
		return fmt.Errorf("%w: %s at %s", ErrRefused, txn.ID, s.id)
	case again:
		return nil
	}
	if err := s.disk.Append(rec); err != nil {
		return fmt.Errorf("dist: vote of %s on %s at %s: %w", txn.ID, rec.Object, s.id, err)
	}
	s.mu.Lock()
	if s.txns != nil {
		t := s.recordLocked(txn.ID)
		if !t.voted() {
			t.participants = txn.Participants // frozen since Txn.Commit built it
			t.preparedAt = time.Now()
		}
		t.touch(rec.Object)
		t.halves = append(t.halves, half{obj: rec.Object, dir: rec.Migrate, ringv: rec.RingV, staged: staged})
	}
	s.mu.Unlock()
	if s.inj.Fires(crash) {
		s.Crash()
		return fmt.Errorf("%w: %s (crashed after logging its vote)", ErrSiteDown, s.id)
	}
	return nil
}

// handleCommit and handleAbort deliver the decision for a client half. If
// the site crashed after preparing, the volatile intentions are gone;
// recovery has already redone them from the log, so the commit is a no-op
// there — idempotence comes from the write-ahead log, not the in-memory
// object. Two crash windows are injectable around the commit record: before
// it (recovery resolves cooperatively) and after it (recovery redoes the
// installation).
func (s *Site) handleCommit(d delivery, obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(d.expect, txn.ID, obj, true, fault.SiteCrashCommitBeforeLog, fault.SiteCrashCommitAfterLog)
}

func (s *Site) handleAbort(d delivery, obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(d.expect, txn.ID, obj, false, "", "")
}

// decide installs txn's one agreed outcome at this site: a commit on the
// half at obj or — obj empty, the in-doubt resolver's verdict — on every
// half still prepared here; an abort on the whole transaction, every half
// and every object it touched here. It is the only place a running site
// forces an outcome record and then acts on it, whoever learned the
// outcome and whatever kind the half is. expect is the epoch a decision
// message's sender pinned (zero: the site's own resolver or sweeper). A
// transaction decided here already is installed already, unless it was
// refused to a peer with its record kept (see refuse): an abort then
// releases what the record holds, without a second record.
//
// The record comes first. For a commit it is mandatory and write-ahead:
// installing with the append failed would let the live state advance past
// the durable story — a checkpoint taken in that window captures later
// transactions' effects while re-appending this one's intentions behind
// them (replay then redoes the operations in the wrong order), and for a
// migration half, client intentions logged at the new home would hang off a
// hosting change the log does not tell. On failure the half stays prepared
// (its locks or freeze still held, so nothing slips past it) and the
// resolver retries against the coordinator's durable decision. For an abort
// the record is best-effort: recovery presumes abort. before and after are
// the caller's crash windows around a commit record.
//
// Then each half installs by kind — a client half through its object's
// Commit or Abort, a migration half as a hosting change — and is struck
// from the record. Client halves install before they are struck, so a
// migration drain never finds the object idle with a decided commit still
// missing from its base. Once the last half is struck (or at once, for an
// abort) the outcome is cached, the record deleted and the deadlock
// detector forgets the transaction. Racing decides of one transaction (a
// handler and the resolver) are benign: every install is idempotent and
// replay tolerates duplicate outcome records.
func (s *Site) decide(expect uint64, txn histories.ActivityID, obj histories.ObjectID, commit bool, before, after fault.Point) error {
	s.mu.Lock()
	if err := s.admitLocked(expect); err != nil {
		s.mu.Unlock()
		return err
	}
	t := s.txns[txn]
	prior, logged := s.decided.get(txn)
	if logged && (prior != commit || t == nil) {
		s.mu.Unlock()
		if prior != commit {
			return fmt.Errorf("%w: %s at %s", ErrRefused, txn, s.id)
		}
		return nil
	}
	epoch := s.epoch
	var buf [2]half
	picks := buf[:0]
	has := func(obj histories.ObjectID) bool {
		return slices.ContainsFunc(picks, func(h half) bool { return h.obj == obj })
	}
	if t != nil {
		for _, h := range t.halves {
			if !commit || obj == "" || h.obj == obj {
				picks = append(picks, h)
			}
		}
		if !commit {
			// An abort also releases the objects the transaction touched
			// here without voting.
			for _, o := range t.objects {
				if !has(o) {
					picks = append(picks, half{obj: o})
				}
			}
		}
	}
	if !commit && obj != "" && !has(obj) {
		picks = append(picks, half{obj: obj})
	}
	if len(picks) == 0 {
		// A repeated commit of a half struck already, or a resolver racing
		// the handler that installed the outcome.
		s.mu.Unlock()
		return nil
	}
	slices.SortFunc(picks, func(a, b half) int { return strings.Compare(string(a.obj), string(b.obj)) })
	var obuf [2]*locking.Object
	objects := obuf[:0]
	for _, pk := range picks {
		if o := s.objects[pk.obj]; o != nil && pk.dir == recovery.MigrateNone {
			objects = append(objects, o)
		}
	}
	s.mu.Unlock()

	if commit && s.inj.Fires(before) {
		s.Crash()
		return fmt.Errorf("%w: %s (crashed before logging commit)", ErrSiteDown, s.id)
	}
	if !logged {
		if err := s.disk.Append(recovery.OutcomeRecord(txn, commit)); err != nil && commit {
			return fmt.Errorf("dist: commit %s at %s: %w", txn, s.id, err)
		}
	}
	if commit && s.inj.Fires(after) {
		// The commit is durable but not installed; restart will redo it.
		// The log append was the observable commit point at this site, so
		// the commit events the installs would have emitted are owed now.
		for _, o := range objects {
			s.sink.Emit(histories.Commit(o.ObjectID(), txn))
		}
		s.Crash()
		return fmt.Errorf("%w: %s (crashed after logging commit)", ErrSiteDown, s.id)
	}

	info := &cc.TxnInfo{ID: txn}
	for _, o := range objects {
		if commit {
			o.Commit(info, histories.TSNone)
		} else {
			o.Abort(info)
		}
	}
	s.mu.Lock()
	if s.txns == nil || s.epoch != epoch {
		// Crashed concurrently: the tables are gone, or a recovery rebuilt
		// them from a log that tells this outcome or resolved it anew.
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	t = s.txns[txn]
	for _, pk := range picks {
		s.installHostingLocked(txn, pk, commit)
		if i := t.at(pk.obj); i >= 0 {
			t.halves = slices.Delete(t.halves, i, i+1)
		}
	}
	var det *locking.Detector
	if !commit || !t.voted() {
		s.decidedLocked(txn, commit)
		det = s.detector
	}
	s.mu.Unlock()
	if det != nil {
		det.Forget(txn)
	}
	return nil
}

// --- shard-migration message handlers -----------------------------------
//
// A migration is an ordinary transaction with two participants: the
// object's old home prepares a MigrateOut half (commit drops hosting) and
// the new home prepares a MigrateIn half (commit adopts the copied state
// as the object's committed baseline and takes over hosting). Both halves
// force intentions at prepare and resolve through the same 2PC and
// cooperative-termination machinery as client transactions, so a crash at
// any point leaves the object singly-homed: either the migration is
// durably committed everywhere it matters (and recovery redoes the
// hosting change from the log) or it presumed-aborts and the object stays
// at its old home.

// migExport is the state a migration's export returns: the object's
// committed baseline plus the schema needed to rebuild it at the new home.
// The model is in-process, so the guard factory travels by reference.
type migExport struct {
	State spec.State
	Type  adts.Type
	Guard func(adts.Type) locking.Guard
}

// handleMigrateExport freezes obj under migration transaction txn and
// returns its committed state. The freeze only lands on a drained object:
// any other transaction with a record touching obj — live invocations or a
// prepared vote — refuses the migration (retryably — the driver backs off
// and retries), because moving an object out from under undecided
// intentions could commit them at a home that no longer owns the object.
// The same drain keeps the exported baseline durable: decide installs a
// commit only after its record is logged, and a half whose commit record
// failed stays prepared here, so every effect in the copy is already told
// by the log. The migration registers with its freeze: if its driver dies
// before prepare, the sweeper lifts the freeze. A repeat while the
// migration lives freezes and answers again, the same.
func (s *Site) handleMigrateExport(d delivery, obj histories.ObjectID, txn *cc.TxnInfo) (migExport, error) {
	var o *locking.Object
	var exp migExport
	if err := s.enter(d, txn.ID, func(own *siteTxn) (err error) {
		if o, err = s.routedLocked(obj, 0); err != nil {
			return err
		}
		if err = s.frozenLocked(obj, txn.ID); err != nil {
			return err
		}
		for id, t := range s.txns {
			if id != txn.ID && slices.Contains(t.objects, obj) {
				what := "active"
				if t.voted() {
					what = "in-doubt"
				}
				return fmt.Errorf("%w: %s at %s busy (%s transaction %s)", ErrMigrating, obj, s.id, what, id)
			}
		}
		s.migrating[obj] = txn.ID
		exp.Type, exp.Guard = s.types[obj], s.guards[obj]
		s.registerLocked(own, txn.ID, obj)
		return nil
	}); err != nil {
		return migExport{}, err
	}
	exp.State = o.Base()
	return exp, nil
}

// handleMigrateImport stages the copied object state at the destination,
// in the migration's record. The staging is volatile: a crash before
// prepare wipes it and the migration's prepare then votes no
// (ErrStaleTxn). The object's schema (type + guard factory) is adopted into
// the site's stable catalog so a post-commit recovery can rebuild the
// object. A repeat while the migration lives stages the same copy again.
func (s *Site) handleMigrateImport(d delivery, obj histories.ObjectID, txn *cc.TxnInfo, exp migExport) error {
	return s.enter(d, txn.ID, func(t *siteTxn) error {
		if s.hosted[obj] {
			return fmt.Errorf("dist: import of %s at %s: already hosted here: %w", obj, s.id, cc.ErrUnavailable)
		}
		if _, known := s.types[obj]; !known {
			s.types[obj] = exp.Type
		}
		// The type may be known without a guard factory — a replica seed
		// adopts the schema but carries no guard — so the guard is filled
		// independently.
		if s.guards[obj] == nil {
			guard := exp.Guard
			if guard == nil {
				guard = func(t adts.Type) locking.Guard { return conflict.ForType(t) }
			}
			s.guards[obj] = guard
		}
		s.registerLocked(t, txn.ID, obj).staged = &stagedImport{obj: obj, state: exp.State, typ: exp.Type}
		return nil
	})
}

// handleMigratePrepare is the migration's vote at one half: it checks the
// volatile half survived since export/import (a crash in between wiped it —
// vote no), then votes like any client prepare (see vote) with a
// Migrate-marked intentions record. The MigrateIn record carries the copied
// baseline, so a committed migration is redoable from the log alone.
func (s *Site) handleMigratePrepare(d delivery, obj histories.ObjectID, txn *cc.TxnInfo, dir recovery.MigrateDir, ringv uint64) error {
	var epoch uint64
	var frozen bool
	var in *stagedImport
	if err := s.enter(d, txn.ID, func(t *siteTxn) error {
		epoch, frozen = s.epoch, s.migrating[obj] == txn.ID
		if t != nil && t.staged != nil && t.staged.obj == obj {
			in = t.staged
		}
		return nil
	}); err != nil {
		return err
	}
	rec := recovery.Record{Object: obj, Migrate: dir, RingV: ringv}
	crash := fault.MigrateCrashSource
	switch {
	case dir == recovery.MigrateOut && frozen:
		in = nil
	case dir == recovery.MigrateIn && in != nil:
		rec.States = map[histories.ObjectID]spec.State{obj: in.state}
		crash = fault.MigrateCrashDest
	default:
		return fmt.Errorf("%w: migration %s lost its half (direction %d) of %s at %s", ErrStaleTxn, txn.ID, dir, obj, s.id)
	}
	return s.vote(txn, epoch, rec, crash, in)
}

// handleMigrateCommit and handleMigrateAbort deliver the decision for a
// migration half. Both of a commit's crash windows ride the
// fault.MigrateCrashCommit point: before the local commit record (the
// migration stays in doubt here and termination resolves it against the
// coordinator's log) and after it (restart redoes the hosting change from
// the log alone).
func (s *Site) handleMigrateCommit(d delivery, obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(d.expect, txn.ID, obj, true, fault.MigrateCrashCommit, fault.MigrateCrashCommit)
}

func (s *Site) handleMigrateAbort(d delivery, obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(d.expect, txn.ID, obj, false, "", "")
}

// installHostingLocked is the hosting side of one half's outcome, under
// s.mu: a committed Out half drops the object and its hosting, a committed
// In half builds the object from the staged baseline and takes hosting at
// the migration's placement version; either outcome lifts the
// transaction's freeze (its staged copy goes with its record). For a
// client half (and for a commit that finds no vote: recovery already
// redid the hosting change from the log) nothing applies.
func (s *Site) installHostingLocked(txn histories.ActivityID, h half, commit bool) {
	obj := h.obj
	if commit {
		switch h.dir {
		case recovery.MigrateOut:
			delete(s.objects, obj)
			s.hosted[obj] = false
			delete(s.homedAt, obj)
		case recovery.MigrateIn:
			if s.hosted[obj] {
				break // a racing decide already adopted it
			}
			if o, err := s.buildObject(obj, h.staged.typ, s.guards[obj], h.staged.state); err == nil {
				s.objects[obj] = o
			}
			s.hosted[obj] = true
			s.homedAt[obj] = h.ringv
		}
	}
	if owner, ok := s.migrating[obj]; ok && owner == txn {
		delete(s.migrating, obj)
	}
}

// AbortAbandoned unilaterally aborts transactions that have invoked
// operations here but have been idle longer than idle without preparing,
// returning how many it aborted. Before its yes-vote a participant may
// always abort a transaction on its own authority, and must: a client
// whose abort broadcast never arrived (crashed, partitioned away, or its
// retransmissions exhausted) otherwise leaves its locks granted forever —
// no prepare record means the in-doubt resolver will never visit them.
//
// The abort is a durable refusal first, taken under voteMu exactly like a
// termination-protocol refusal (see refuse): a racing prepare either loses
// (refused via the decided cache) or has already logged intentions, in
// which case the transaction is in doubt and is left to the resolver.
// Then decide releases what the record holds. A transaction refused to a
// peer earlier is released the same way, without a second record.
func (s *Site) AbortAbandoned(idle time.Duration) int {
	if !s.Up() {
		return 0
	}
	now := time.Now()
	var stale []histories.ActivityID
	s.mu.Lock()
	for txn, t := range s.txns {
		if !t.voted() && now.Sub(t.lastSeen) >= idle {
			stale = append(stale, txn)
		}
	}
	s.mu.Unlock()
	slices.Sort(stale)
	swept := 0
	for _, txn := range stale {
		s.voteMu.Lock()
		out := s.refuse(txn)
		s.voteMu.Unlock()
		if out != OutcomeUnknown && out != OutcomeAborted {
			continue // a prepare won the race, or the site is down
		}
		if s.decide(0, txn, "", false, "", "") == nil {
			swept++
			obsAbandonedSwept.Inc()
		}
	}
	return swept
}

// CommittedStateKey returns the committed state key of a hosted object
// (for tests).
func (s *Site) CommittedStateKey(id histories.ObjectID) (string, error) {
	o, err := s.object(id)
	if err != nil {
		return "", err
	}
	return o.Base().Key(), nil
}
