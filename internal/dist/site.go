package dist

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
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
	obsCacheEvicts    = obs.Default.Counter("dist.reply.cache.evictions")
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
	up         bool
	epoch      uint64
	disk       recovery.Backend // stable: survives crashes
	types      map[histories.ObjectID]adts.Type
	guards     map[histories.ObjectID]func(adts.Type) locking.Guard
	seedHosted map[histories.ObjectID]bool            // stable: objects seeded here (pre-migration)
	objects    map[histories.ObjectID]*locking.Object // volatile
	detector   *locking.Detector                      // volatile
	prepared   map[histories.ActivityID]*preparedTxn  // volatile in-doubt set
	active     map[histories.ActivityID]*activeTxn    // volatile unprepared-invoker set
	decided    map[histories.ActivityID]bool          // volatile outcomes, authoritative while up (rebuilt from log)
	crashes    int64                                  // total crashes, for diagnostics

	// The volatile at-most-once reply cache. A reply is pinned while its
	// transaction is undecided — evicting it would let a retransmission
	// re-execute its handler — so the cache can exceed replyCap by the
	// replies of in-flight transactions. pinned lists each undecided
	// transaction's request ids; its decision (decidedLocked) moves them to
	// evictable, the FIFO cacheReply evicts from while the cache is over
	// replyCap. A decided transaction's client can never legitimately
	// retransmit.
	replies   map[uint64]cachedReply
	pinned    map[histories.ActivityID][]uint64
	evictable []uint64
	replyCap  int

	// Migration state. hosted is the volatile hosting view (rebuilt from
	// the log at recovery: seedHosted plus committed migrations); homedAt
	// records the placement version at which an object migrated in, so a
	// request carrying an older placement view is refused as moved;
	// migrating freezes an object under an in-flight migration
	// transaction; staged holds copied-in state between a migration's
	// import and its commit.
	hosted    map[histories.ObjectID]bool
	homedAt   map[histories.ObjectID]uint64
	migrating map[histories.ObjectID]histories.ActivityID
	staged    map[histories.ActivityID]map[histories.ObjectID]stagedImport

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
	state spec.State
	typ   adts.Type
}

// preparedTxn tracks a transaction this site voted yes for and has not yet
// learned the outcome of.
type preparedTxn struct {
	halves       []half // the votes, one per object
	participants []string
	preparedAt   time.Time
	attempts     int       // failed termination-protocol attempts
	nextTry      time.Time // capped-backoff gate for the next attempt
}

// at returns the index of the half voted at obj, or -1.
func (p *preparedTxn) at(obj histories.ObjectID) int {
	return slices.IndexFunc(p.halves, func(h half) bool { return h.obj == obj })
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

// activeTxn tracks a transaction that has invoked operations here (and so
// may hold locks) but has not prepared. Until its yes-vote this site may
// unilaterally abort it, which is how locks leaked by a client whose abort
// broadcast never arrived are eventually reclaimed (AbortAbandoned).
type activeTxn struct {
	objects  map[histories.ObjectID]bool
	lastSeen time.Time
}

// cachedReply is a memoised handler result, keyed by request id.
type cachedReply struct {
	value any
	err   error
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
		up:          true,
		epoch:       1,
		disk:        cfg.Disk,
		types:       make(map[histories.ObjectID]adts.Type),
		guards:      make(map[histories.ObjectID]func(adts.Type) locking.Guard),
		seedHosted:  make(map[histories.ObjectID]bool),
		objects:     make(map[histories.ObjectID]*locking.Object),
		detector:    locking.NewDetector(),
		prepared:    make(map[histories.ActivityID]*preparedTxn),
		active:      make(map[histories.ActivityID]*activeTxn),
		decided:     make(map[histories.ActivityID]bool),
		replies:     make(map[uint64]cachedReply),
		pinned:      make(map[histories.ActivityID][]uint64),
		replyCap:    1024,
		hosted:      make(map[histories.ObjectID]bool),
		homedAt:     make(map[histories.ObjectID]uint64),
		migrating:   make(map[histories.ObjectID]histories.ActivityID),
		staged:      make(map[histories.ActivityID]map[histories.ObjectID]stagedImport),
		follows:     make(map[histories.ObjectID]bool),
		replicas:    make(map[histories.ObjectID]*ccrt.VersionLog),
	}
	s.disk.SetInjector(cfg.Injector)
	if err := cfg.Network.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the site identifier.
func (s *Site) ID() SiteID { return s.id }

// Up reports whether the site is running.
func (s *Site) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

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
	if !s.up {
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

// Crash takes the site down, discarding every volatile structure: active
// transactions, lock tables, committed in-memory states, the in-doubt set,
// the outcome cache, the reply cache. Only the disk survives. The epoch is
// bumped so messages from pre-crash activities are detected as orphans.
func (s *Site) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.up = false
	s.epoch++
	s.objects = nil
	s.detector = nil
	s.prepared = nil
	s.active = nil
	s.decided = nil
	s.replies = nil
	s.pinned = nil
	s.evictable = nil
	s.hosted = nil
	s.homedAt = nil
	s.migrating = nil
	s.staged = nil
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

// checkEpoch refuses messages from a pre-crash epoch. expect is the epoch
// the client first observed at this site (zero: no expectation yet).
func (s *Site) checkEpoch(expect uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if expect != 0 && expect != s.epoch {
		obsEpochOrphans.Inc()
		return fmt.Errorf("%w: %s is at epoch %d, message from epoch %d", ErrOrphaned, s.id, s.epoch, expect)
	}
	return nil
}

// cachedReply looks up the memoised reply for a request id (at-most-once
// delivery). Crashed sites have no cache.
func (s *Site) cachedReply(reqID uint64) (any, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replies[reqID]
	if ok {
		obsCacheHits.Inc()
	}
	return r.value, r.err, ok
}

// cacheReply memoises a handler's reply (a no-op after a crash), then
// evicts decided transactions' replies, oldest decision first, while the
// cache is over its cap.
func (s *Site) cacheReply(reqID uint64, txn histories.ActivityID, v any, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replies == nil {
		return
	}
	s.replies[reqID] = cachedReply{value: v, err: err}
	if _, done := s.decided[txn]; done {
		s.evictable = append(s.evictable, reqID)
	} else {
		s.pinned[txn] = append(s.pinned[txn], reqID)
	}
	for len(s.replies) > s.replyCap && len(s.evictable) > 0 {
		delete(s.replies, s.evictable[0])
		s.evictable = s.evictable[1:]
		obsCacheEvicts.Inc()
	}
}

// decidedLocked caches txn's outcome and unpins its replies. Every path
// that resolves a transaction at a running site ends here, under s.mu.
func (s *Site) decidedLocked(txn histories.ActivityID, commit bool) {
	s.decided[txn] = commit
	s.evictable = append(s.evictable, s.pinned[txn]...)
	delete(s.pinned, txn)
}

// Checkpoint snapshots the site's committed states into its write-ahead
// log and compacts the log prefix the snapshot summarises, returning the
// estimated bytes reclaimed.
func (s *Site) Checkpoint() (int64, error) {
	s.mu.Lock()
	if !s.up {
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
	fold := recovery.FoldLog(s.disk.Records())

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
	s.up = true
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
	s.prepared = make(map[histories.ActivityID]*preparedTxn)
	s.active = make(map[histories.ActivityID]*activeTxn)
	s.replies = make(map[uint64]cachedReply)
	s.pinned = make(map[histories.ActivityID][]uint64)
	s.decided = fold.Decided()
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
	s.staged = make(map[histories.ActivityID]map[histories.ObjectID]stagedImport)
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
	if !s.up {
		return nil, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("dist: no object %s at %s", id, s.id)
	}
	return o, nil
}

// objectRouted is object for placement-routed client operations: the site
// must currently be home to the object, and the request's placement
// version rv (zero: unversioned) must not predate the migration that
// brought the object here — either way the sender's placement view is
// stale and the request is refused with ErrMoved rather than executed at
// the wrong home.
func (s *Site) objectRouted(id histories.ObjectID, rv uint64) (*locking.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up {
		return nil, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
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

// frozenCheck refuses a client operation on an object frozen by an
// in-flight migration transaction. It runs under s.mu AFTER the caller
// registered the transaction in s.active, so it pairs with the migration
// drain scan (also under s.mu): either the client registers first and the
// drain sees it (migration told busy), or the freeze lands first and the
// client sees it here — never both proceeding.
func (s *Site) frozenCheck(obj histories.ObjectID, txn histories.ActivityID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	if !s.up || !s.hosted[obj] {
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

// handleInvoke executes one invocation. seq is the number of calls the
// client believes the transaction has completed at this object; if the
// site's count disagrees, a crash wiped the transaction's volatile
// intentions between its operations, and executing further calls would let
// a partial transaction commit — refuse with the retryable ErrStaleTxn
// instead.
func (s *Site) handleInvoke(obj histories.ObjectID, txn *cc.TxnInfo, inv spec.Invocation, seq int, rv uint64) (value.Value, error) {
	o, err := s.objectRouted(obj, rv)
	if err != nil {
		return value.Nil(), err
	}
	if s.isDecided(txn.ID) {
		// A late or duplicate message from a transaction this site already
		// resolved (aborted as abandoned, refused to a peer, or decided by
		// 2PC). Executing it would re-acquire locks for a dead transaction.
		return value.Nil(), fmt.Errorf("%w: invoke by %s at %s", ErrRefused, txn.ID, s.id)
	}
	if got := len(o.PendingCalls(txn)); got != seq {
		return value.Nil(), fmt.Errorf("%w: %s at %s has %d of %d calls", ErrStaleTxn, txn.ID, s.id, got, seq)
	}
	s.registerTxn(txn, obj)
	if err := s.frozenCheck(obj, txn.ID); err != nil {
		return value.Nil(), err
	}
	v, err := o.Invoke(txn, inv)
	if s.isDecided(txn.ID) {
		// The abandoned-transaction sweeper resolved this transaction while
		// the invoke was in flight. Its freshly granted locks would leak, and
		// so would the detector entry a wait inside the invoke left behind
		// after the sweeper's Forget: undo both and refuse.
		if err == nil {
			o.Abort(txn)
			err = fmt.Errorf("%w: invoke by %s at %s", ErrRefused, txn.ID, s.id)
		}
		s.forgetTxn(txn.ID)
		return value.Nil(), err
	}
	return v, err
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

func (s *Site) isDecided(txn histories.ActivityID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.decided[txn]
	return ok
}

func (s *Site) registerTxn(txn *cc.TxnInfo, obj histories.ObjectID) {
	s.mu.Lock()
	if s.active != nil {
		a := s.active[txn.ID]
		if a == nil {
			a = &activeTxn{objects: make(map[histories.ObjectID]bool)}
			s.active[txn.ID] = a
		}
		a.objects[obj] = true
		a.lastSeen = time.Now()
	}
	s.mu.Unlock()
}

// handlePrepare is a client transaction's vote at obj: the intentions the
// object's lock table holds are forced to the site's log (see vote). expect
// is the client's count of the transaction's completed calls here; a
// mismatch means a crash wiped part of the transaction, so the site votes
// no.
func (s *Site) handlePrepare(obj histories.ObjectID, txn *cc.TxnInfo, expect int, rv uint64) error {
	o, err := s.objectRouted(obj, rv)
	if err != nil {
		return err
	}
	if err := s.frozenCheck(obj, txn.ID); err != nil {
		return err
	}
	calls := o.PendingCalls(txn)
	if len(calls) != expect {
		return fmt.Errorf("%w: %s at %s has %d of %d calls at prepare", ErrStaleTxn, txn.ID, s.id, len(calls), expect)
	}
	if err := o.Prepare(txn); err != nil {
		return err
	}
	err = s.vote(txn, recovery.Record{Object: obj, Calls: calls}, fault.SiteCrashPrepare, nil)
	if errors.Is(err, ErrRefused) {
		o.Abort(txn)
	}
	return err
}

// vote is the participant's yes-vote, for a client half and a migration
// half alike: rec — the half's intentions — is forced to the site's log
// with the participant list, so an in-doubt recovery knows which peers to
// poll, and the half joins the prepared table. A failed or torn append
// votes no: an unlogged yes-vote would let a commit decision outrun the
// intentions that make it redoable. A transaction this site already
// resolved (an abort applied, or a refusal promised to a querying peer) is
// voted no under voteMu, so a yes-vote can never interleave with the
// refusal that forbids it. The half joins the prepared table before voteMu
// is released: an outcome query, which answers from the volatile tables
// alone, then never finds a logged yes-vote missing from them. crash is the
// caller's window after the vote: it is durable but never reaches the
// coordinator, leaving the transaction in doubt here for the cooperative
// termination protocol.
func (s *Site) vote(txn *cc.TxnInfo, rec recovery.Record, crash fault.Point, staged *stagedImport) error {
	rec.Kind, rec.Txn, rec.Participants = recovery.RecordIntentions, txn.ID, txn.Participants
	s.voteMu.Lock()
	if s.isDecided(txn.ID) {
		s.voteMu.Unlock()
		return fmt.Errorf("%w: %s at %s", ErrRefused, txn.ID, s.id)
	}
	if err := s.disk.Append(rec); err != nil {
		s.voteMu.Unlock()
		return fmt.Errorf("dist: vote of %s on %s at %s: %w", txn.ID, rec.Object, s.id, err)
	}
	s.mu.Lock()
	if s.prepared != nil {
		p := s.prepared[txn.ID]
		if p == nil {
			p = &preparedTxn{
				participants: append([]string(nil), txn.Participants...),
				preparedAt:   time.Now(),
			}
			s.prepared[txn.ID] = p
		}
		h := half{obj: rec.Object, dir: rec.Migrate, ringv: rec.RingV, staged: staged}
		if i := p.at(rec.Object); i >= 0 {
			p.halves[i] = h
		} else {
			p.halves = append(p.halves, h)
		}
	}
	s.mu.Unlock()
	s.voteMu.Unlock()
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
func (s *Site) handleCommit(obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(txn.ID, obj, true, fault.SiteCrashCommitBeforeLog, fault.SiteCrashCommitAfterLog)
}

func (s *Site) handleAbort(obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(txn.ID, obj, false, "", "")
}

// decide installs txn's one agreed outcome at this site, on the half at
// obj or — obj empty, the in-doubt resolver's verdict — on every half still
// prepared here. It is the only place a running site forces an outcome
// record and then acts on it, whoever learned the outcome and whatever kind
// the half is.
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
// from the prepared table. Client halves install before they are struck, so
// a migration drain never finds the object idle with a decided commit still
// missing from its base. Once the last half is struck (or the transaction
// never voted here: an abort before prepare) the outcome is cached, the
// transaction's replies become evictable and the deadlock detector forgets
// it. Racing decides of one transaction (a handler and the resolver) are
// benign: every install is idempotent and replay tolerates duplicate
// outcome records.
func (s *Site) decide(txn histories.ActivityID, obj histories.ObjectID, commit bool, before, after fault.Point) error {
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	var picks []half
	if p := s.prepared[txn]; p != nil {
		for _, h := range p.halves {
			if obj == "" || h.obj == obj {
				picks = append(picks, h)
			}
		}
	}
	if len(picks) == 0 && obj != "" && !commit {
		// An abort before the vote: a client half releases the object's
		// locks, or the freeze or staged copy of a migration.
		picks = append(picks, half{obj: obj})
	}
	sort.Slice(picks, func(i, j int) bool { return picks[i].obj < picks[j].obj })
	var objects []*locking.Object
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
	if err := s.disk.Append(recovery.OutcomeRecord(txn, commit)); err != nil && commit {
		return fmt.Errorf("dist: commit %s at %s: %w", txn, s.id, err)
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
	if s.prepared == nil { // crashed concurrently
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	p := s.prepared[txn]
	for _, pk := range picks {
		s.installHostingLocked(txn, pk, commit)
		if p != nil {
			if i := p.at(pk.obj); i >= 0 {
				p.halves = slices.Delete(p.halves, i, i+1)
			}
		}
	}
	var det *locking.Detector
	if p == nil || len(p.halves) == 0 {
		delete(s.prepared, txn)
		delete(s.active, txn)
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
// any other transaction with live invocations or a prepared vote on obj
// refuses the migration (retryably — the driver backs off and retries),
// because moving an object out from under undecided intentions could
// commit them at a home that no longer owns the object. The same drain
// keeps the exported baseline durable: decide installs a commit only after
// its record is logged, and a half whose commit record failed stays
// prepared here, so every effect in the copy is already told by the log.
func (s *Site) handleMigrateExport(obj histories.ObjectID, txn *cc.TxnInfo) (migExport, error) {
	o, err := s.objectRouted(obj, 0)
	if err != nil {
		return migExport{}, err
	}
	s.mu.Lock()
	if owner, frozen := s.migrating[obj]; frozen && owner != txn.ID {
		s.mu.Unlock()
		return migExport{}, fmt.Errorf("%w: %s at %s (frozen by %s)", ErrMigrating, obj, s.id, owner)
	}
	for id, a := range s.active {
		if id != txn.ID && a.objects[obj] {
			s.mu.Unlock()
			return migExport{}, fmt.Errorf("%w: %s at %s busy (active transaction %s)", ErrMigrating, obj, s.id, id)
		}
	}
	for id, p := range s.prepared {
		if id != txn.ID && p.at(obj) >= 0 {
			s.mu.Unlock()
			return migExport{}, fmt.Errorf("%w: %s at %s busy (in-doubt transaction %s)", ErrMigrating, obj, s.id, id)
		}
	}
	s.migrating[obj] = txn.ID
	typ := s.types[obj]
	guard := s.guards[obj]
	s.mu.Unlock()
	// Register the migration in the active set: if its driver dies before
	// prepare, the abandoned-transaction sweeper reclaims the freeze.
	s.registerTxn(txn, obj)
	return migExport{State: o.Base(), Type: typ, Guard: guard}, nil
}

// handleMigrateImport stages the copied object state at the destination.
// The staging is volatile: a crash before prepare wipes it and the
// migration's prepare then votes no (ErrStaleTxn). The object's schema
// (type + guard factory) is adopted into the site's stable catalog so a
// post-commit recovery can rebuild the object.
func (s *Site) handleMigrateImport(obj histories.ObjectID, txn *cc.TxnInfo, exp migExport) error {
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	if s.hosted[obj] {
		s.mu.Unlock()
		return fmt.Errorf("dist: import of %s at %s: already hosted here: %w", obj, s.id, cc.ErrUnavailable)
	}
	if _, known := s.types[obj]; !known {
		s.types[obj] = exp.Type
	}
	// The type may be known without a guard factory — a replica seed adopts
	// the schema but carries no guard — so the guard is filled independently.
	if s.guards[obj] == nil {
		guard := exp.Guard
		if guard == nil {
			guard = func(t adts.Type) locking.Guard { return conflict.ForType(t) }
		}
		s.guards[obj] = guard
	}
	m := s.staged[txn.ID]
	if m == nil {
		m = make(map[histories.ObjectID]stagedImport)
		s.staged[txn.ID] = m
	}
	m[obj] = stagedImport{state: exp.State, typ: exp.Type}
	s.mu.Unlock()
	s.registerTxn(txn, obj)
	return nil
}

// handleMigratePrepare is the migration's vote at one half: it checks the
// volatile half survived since export/import (a crash in between wiped it —
// vote no), then votes like any client prepare (see vote) with a
// Migrate-marked intentions record. The MigrateIn record carries the copied
// baseline, so a committed migration is redoable from the log alone.
func (s *Site) handleMigratePrepare(obj histories.ObjectID, txn *cc.TxnInfo, dir recovery.MigrateDir, ringv uint64) error {
	s.mu.Lock()
	up, frozen := s.up, s.migrating[obj] == txn.ID
	st, staged := s.staged[txn.ID][obj]
	s.mu.Unlock()
	rec := recovery.Record{Object: obj, Migrate: dir, RingV: ringv}
	crash := fault.MigrateCrashSource
	var in *stagedImport
	switch {
	case !up:
		return fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	case dir == recovery.MigrateOut && frozen:
	case dir == recovery.MigrateIn && staged:
		rec.States = map[histories.ObjectID]spec.State{obj: st.state}
		crash = fault.MigrateCrashDest
		in = &st
	default:
		return fmt.Errorf("%w: migration %s lost its half (direction %d) of %s at %s", ErrStaleTxn, txn.ID, dir, obj, s.id)
	}
	return s.vote(txn, rec, crash, in)
}

// handleMigrateCommit and handleMigrateAbort deliver the decision for a
// migration half. Both of a commit's crash windows ride the
// fault.MigrateCrashCommit point: before the local commit record (the
// migration stays in doubt here and termination resolves it against the
// coordinator's log) and after it (restart redoes the hosting change from
// the log alone).
func (s *Site) handleMigrateCommit(obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(txn.ID, obj, true, fault.MigrateCrashCommit, fault.MigrateCrashCommit)
}

func (s *Site) handleMigrateAbort(obj histories.ObjectID, txn *cc.TxnInfo) error {
	return s.decide(txn.ID, obj, false, "", "")
}

// installHostingLocked is the hosting side of one half's outcome, under
// s.mu: a committed Out half drops the object and its hosting, a committed
// In half builds the object from the staged baseline and takes hosting at
// the migration's placement version; either outcome lifts the
// transaction's freeze and drops its staged copy. For a client half (and
// for a commit that finds no vote: recovery already redid the hosting
// change from the log) nothing applies.
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
	if m := s.staged[txn]; m != nil {
		delete(m, obj)
		if len(m) == 0 {
			delete(s.staged, txn)
		}
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
// The abort is taken under voteMu with a durable refusal record, exactly
// like a termination-protocol refusal: a racing prepare either loses
// (refused via the decided cache) or has already logged intentions, in
// which case the transaction is in doubt and is left to the resolver.
func (s *Site) AbortAbandoned(idle time.Duration) int {
	if !s.Up() {
		return 0
	}
	now := time.Now()
	var stale []histories.ActivityID
	s.mu.Lock()
	for txn, a := range s.active {
		if s.prepared[txn] == nil && now.Sub(a.lastSeen) >= idle {
			stale = append(stale, txn)
		}
	}
	s.mu.Unlock()
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	swept := 0
	for _, txn := range stale {
		s.voteMu.Lock()
		out := s.outcomeOf(txn)
		switch out {
		case OutcomeUnknown:
			if err := s.disk.Append(recovery.Record{Kind: recovery.RecordAbort, Txn: txn}); err != nil {
				s.voteMu.Unlock()
				continue // an unlogged refusal must not be acted on
			}
		case OutcomeInDoubt:
			// Intentions are logged: a prepare won the race. The in-doubt
			// machinery owns this transaction now.
			s.voteMu.Unlock()
			continue
		}
		s.mu.Lock()
		if s.active == nil { // crashed concurrently
			s.mu.Unlock()
			s.voteMu.Unlock()
			return swept
		}
		a := s.active[txn]
		delete(s.active, txn)
		if out == OutcomeUnknown || out == OutcomeAborted {
			s.decidedLocked(txn, false)
			// A swept migration driver leaves a freeze or a staged copy
			// behind; the abort reclaims both.
			for obj, owner := range s.migrating {
				if owner == txn {
					delete(s.migrating, obj)
				}
			}
			delete(s.staged, txn)
		}
		var objects []*locking.Object
		if a != nil && out != OutcomeCommitted {
			ids := make([]histories.ObjectID, 0, len(a.objects))
			for id := range a.objects {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				if o := s.objects[id]; o != nil {
					objects = append(objects, o)
				}
			}
		}
		det := s.detector
		s.mu.Unlock()
		s.voteMu.Unlock()
		info := &cc.TxnInfo{ID: txn}
		for _, o := range objects {
			o.Abort(info)
		}
		if det != nil {
			det.Forget(txn)
		}
		if out == OutcomeUnknown || out == OutcomeAborted {
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
