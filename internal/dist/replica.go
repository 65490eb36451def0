package dist

import (
	"errors"
	"fmt"
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

// Replica groups: coordination-free replication for commuting operations.
//
// The cluster's single-home placement generalises to an N-replica set per
// object: the placement map still names the object's leader (every locking
// and 2PC interaction is unchanged and runs against it), and the ring's
// Owners walk names N-1 follower sites that maintain timestamped copies.
// The split in the operation path is decided by the conflict engine:
//
//   - Every committed client transaction on a replicated object ships its
//     logged calls asynchronously to all followers — per-replica WAL
//     append, no locks, no 2PC, unbounded worker retry over the bounded
//     at-most-once message layer, idempotent replica-side apply keyed by a
//     derived delivery id (`repl!<txn>!<obj>`) through the decided table
//     and WAL dedup: a delivery needs no cached reply and makes no
//     transaction record. Operations in a
//     proven-commutative class (conflict.Static.CommutativeClass) need
//     nothing more: any delivery interleaving converges.
//
//   - A transaction whose calls on an object are NOT a commutative class
//     still locks and two-phase-commits at the leader as before, but its
//     prepare first passes a sync barrier that drains the object's
//     in-flight async deliveries, so its commit timestamp exceeds every
//     delivery it could conflict with and follower apply order equals the
//     leader's serialisation order.
//
//   - Read-only activities (tx.RunReadOnly) execute at any follower
//     against a hybrid-atomicity snapshot timestamp: the replicator's
//     stable timestamp — below the stamp of every committed transaction
//     whose deliveries have not yet fully applied — is pinned at the
//     activity's first read, so a multi-object audit observes each
//     transaction either everywhere or nowhere.
//
// The replicator itself is in-process control-plane state at the origin
// (like the Cluster's placement map): it does not crash, but every message
// it sends rides the unreliable network and every follower can crash at
// any point, recovering its copy from its own WAL (recovery.ReplicaIn
// records, floored at the checkpoint watermark).
var (
	obsReplDeliveries    = obs.Default.Counter("dist.repl.deliveries")
	obsReplRedundant     = obs.Default.Counter("dist.repl.deliveries.redundant")
	obsReplDeliverDrops  = obs.Default.Counter("dist.repl.deliver.drops")
	obsReplDeliverRetry  = obs.Default.Counter("dist.repl.deliver.retries")
	obsReplSeeds         = obs.Default.Counter("dist.repl.seeds")
	obsReplApplyErrors   = obs.Default.Counter("dist.repl.apply.errors")
	obsReplReads         = obs.Default.Counter("dist.repl.reads")
	obsReplReadRefusals  = obs.Default.Counter("dist.repl.read.refusals")
	obsReplDrains        = obs.Default.Counter("dist.repl.drains")
	obsReplDrainTimeouts = obs.Default.Counter("dist.repl.drain.timeouts")
)

// ErrReplicaLag reports a snapshot read below a replica's floor: the
// follower compacted (or crash-recovered) past the requested timestamp and
// can no longer reconstruct that snapshot. It wraps cc.ErrUnavailable — the
// audit retries and pins a fresher snapshot.
var ErrReplicaLag = fmt.Errorf("dist: replica compacted past snapshot: %w", cc.ErrUnavailable)

// ErrNotReplica reports a replica-read or delivery addressed to a site that
// does not (or no longer) follows the object — the sender's replica route
// is stale. It wraps cc.ErrUnavailable.
var ErrNotReplica = fmt.Errorf("dist: site does not replicate this object: %w", cc.ErrUnavailable)

// replicaVersionCap bounds a follower's in-memory version history; when it
// overflows, the oldest half is folded away and the floor advances (reads
// below the floor refuse with ErrReplicaLag).
const replicaVersionCap = 256

// defaultDrainTimeout bounds the sync barrier: a non-commuting prepare that
// cannot drain the object's in-flight deliveries in time (a follower is
// down or unreachable) refuses retryably instead of blocking 2PC forever.
const defaultDrainTimeout = 250 * time.Millisecond

// replRID derives the follower-side activity id a delivery logs under. It
// is distinct from the client transaction's own id, so the delivery's WAL
// records at a site that is both a 2PC participant and a follower (possible
// after migrations) never collide with the transaction's prepare half.
func replRID(txn histories.ActivityID, obj histories.ObjectID) histories.ActivityID {
	return histories.ActivityID(fmt.Sprintf("repl!%s!%s", txn, obj))
}

// replSeedRID is the id a baseline seed logs under.
func replSeedRID(obj histories.ObjectID, ts histories.Timestamp) histories.ActivityID {
	return histories.ActivityID(fmt.Sprintf("repl-seed!%s!%d", obj, ts))
}

// --- follower-side state and handlers ------------------------------------

// baselineLog starts a follower's version log at one baseline version, so
// its floor is the baseline's timestamp. Followers keep their copies in the
// same ccrt.VersionLog hybridcc objects serve snapshots from; the log is
// rebuilt from the WAL at recovery (collapsed to the replica watermark).
func baselineLog(ts histories.Timestamp, st spec.State) *ccrt.VersionLog {
	l := new(ccrt.VersionLog)
	_ = l.Append(ts, st) // an empty log accepts any timestamp
	return l
}

// replSeedReq carries a baseline seed to a new follower.
type replSeedReq struct {
	Obj   histories.ObjectID
	Typ   adts.Type
	State spec.State
	TS    histories.Timestamp
}

// replApplyReq carries one committed transaction's calls on one object.
type replApplyReq struct {
	Obj   histories.ObjectID
	Txn   histories.ActivityID // the client transaction
	Calls []spec.Call
	TS    histories.Timestamp
}

// handleReplicaSeed adopts a baseline copy: the object's schema enters the
// site's stable catalog, the site durably records the follow (a ReplicaIn
// intentions record carrying the state, paired with its own commit record)
// and the in-memory version log starts at the seed timestamp. Idempotent
// under the seed's rid and floored against replays of older seeds.
func (s *Site) handleReplicaSeed(d delivery, req replSeedReq) (struct{}, error) {
	rid := replSeedRID(req.Obj, req.TS)
	s.mu.Lock()
	if err := s.admitLocked(d.expect); err != nil {
		s.mu.Unlock()
		return struct{}{}, err
	}
	if commit, _ := s.decided.get(rid); commit {
		s.mu.Unlock()
		obsReplRedundant.Inc()
		return struct{}{}, nil
	}
	if l := s.replicas[req.Obj]; l != nil && req.TS <= l.Floor() {
		s.mu.Unlock()
		obsReplRedundant.Inc()
		return struct{}{}, nil
	}
	if _, known := s.types[req.Obj]; !known {
		s.types[req.Obj] = req.Typ
	}
	// A default guard rides along so the catalog entry is complete if this
	// site is later promoted to host the object (migration, recovery).
	if s.guards[req.Obj] == nil {
		s.guards[req.Obj] = func(t adts.Type) locking.Guard { return conflict.ForType(t) }
	}
	s.follows[req.Obj] = true
	s.mu.Unlock()
	if err := s.disk.Append(recovery.Record{
		Kind:    recovery.RecordIntentions,
		Txn:     rid,
		Object:  req.Obj,
		Migrate: recovery.ReplicaIn,
		States:  map[histories.ObjectID]spec.State{req.Obj: req.State},
		TS:      req.TS,
	}); err != nil {
		return struct{}{}, fmt.Errorf("dist: seed %s at %s: %w", req.Obj, s.id, errors.Join(err, cc.ErrUnavailable))
	}
	if err := s.disk.Append(recovery.Record{Kind: recovery.RecordCommit, Txn: rid}); err != nil {
		return struct{}{}, fmt.Errorf("dist: seed %s at %s: %w", req.Obj, s.id, errors.Join(err, cc.ErrUnavailable))
	}
	s.mu.Lock()
	if s.decided != nil {
		s.decidedLocked(rid, true)
	}
	if s.replicas != nil {
		s.replicas[req.Obj] = baselineLog(req.TS, req.State)
	}
	s.mu.Unlock()
	obsReplSeeds.Inc()
	return struct{}{}, nil
}

// handleReplicaApply applies one committed transaction's calls at a
// follower: the delivery is made durable first (a ReplicaIn intentions
// record with the calls, paired with its own commit record — the follower's
// per-replica WAL append) and then folded into the version log. Idempotence
// is keyed by the derived rid: a redelivery after a crash finds the commit
// record replayed into the decided cache and acks without re-applying.
// fault.ReplApplyCrash opens two crash windows: before anything is logged
// (redelivery re-logs) and between the two appends (the uncommitted record
// is ignored by replay and superseded by the redelivery's copy).
func (s *Site) handleReplicaApply(d delivery, req replApplyReq) (struct{}, error) {
	rid := replRID(req.Txn, req.Obj)
	s.mu.Lock()
	if err := s.admitLocked(d.expect); err != nil {
		s.mu.Unlock()
		return struct{}{}, err
	}
	if commit, _ := s.decided.get(rid); commit {
		s.mu.Unlock()
		obsReplRedundant.Inc()
		return struct{}{}, nil
	}
	l := s.replicas[req.Obj]
	if l == nil || !s.follows[req.Obj] {
		s.mu.Unlock()
		return struct{}{}, fmt.Errorf("%w: %s at %s", ErrNotReplica, req.Obj, s.id)
	}
	if req.TS <= l.Floor() {
		s.mu.Unlock()
		obsReplRedundant.Inc()
		return struct{}{}, nil
	}
	if head := l.HeadTS(); req.TS <= head {
		// Deliveries reach a follower in stamp order (stamped and enqueued
		// under one mutex, FIFO per queue); a lower-or-equal stamp here can
		// only be a protocol bug, and applying it would corrupt snapshots.
		s.mu.Unlock()
		obsReplApplyErrors.Inc()
		return struct{}{}, fmt.Errorf("dist: out-of-order delivery of %s at %s: ts %d after %d", req.Obj, s.id, req.TS, head)
	}
	st := l.Head(nil)
	s.mu.Unlock()
	if s.inj.Fires(fault.ReplApplyCrash) {
		s.Crash()
		return struct{}{}, fmt.Errorf("%w: %s (crashed before logging delivery)", ErrSiteDown, s.id)
	}
	if err := s.disk.Append(recovery.Record{
		Kind:    recovery.RecordIntentions,
		Txn:     rid,
		Object:  req.Obj,
		Migrate: recovery.ReplicaIn,
		Calls:   req.Calls,
		TS:      req.TS,
	}); err != nil {
		return struct{}{}, fmt.Errorf("dist: delivery %s at %s: %w", rid, s.id, errors.Join(err, cc.ErrUnavailable))
	}
	if s.inj.Fires(fault.ReplApplyCrash) {
		s.Crash()
		return struct{}{}, fmt.Errorf("%w: %s (crashed between delivery log and commit)", ErrSiteDown, s.id)
	}
	if err := s.disk.Append(recovery.Record{Kind: recovery.RecordCommit, Txn: rid}); err != nil {
		return struct{}{}, fmt.Errorf("dist: delivery %s at %s: %w", rid, s.id, errors.Join(err, cc.ErrUnavailable))
	}
	for _, c := range req.Calls {
		out, err := spec.Apply(st, c.Inv)
		if err != nil {
			// The calls committed at the leader, so the spec permitted them
			// on the leader's state; a refusal here means the copies have
			// diverged. The delivery is already durable — replay applies it
			// through the same spec — so surface the divergence loudly.
			obsReplApplyErrors.Inc()
			return struct{}{}, fmt.Errorf("dist: delivery %s at %s diverged: %v", rid, s.id, err)
		}
		st = out.Next
	}
	s.mu.Lock()
	if s.decided != nil {
		s.decidedLocked(rid, true)
	}
	// A crash and recovery between the appends and here rebuilt the log
	// from the WAL, which already holds this delivery: the log then ends at
	// req.TS and the version is not appended twice.
	if l := s.replicas[req.Obj]; l != nil && req.TS > l.HeadTS() {
		_ = l.Append(req.TS, st) // above the head: accepted
		l.Trim(replicaVersionCap)
	}
	s.mu.Unlock()
	obsReplDeliveries.Inc()
	return struct{}{}, nil
}

// handleReplicaRead answers a snapshot read: the newest version at or below
// the snapshot timestamp, with the invocation applied to it read-only. No
// history events are emitted — the read rides hybrid atomicity's timestamp
// order, not the lock order the history checker audits.
func (s *Site) handleReplicaRead(obj histories.ObjectID, inv spec.Invocation, ts histories.Timestamp) (value.Value, error) {
	s.mu.Lock()
	if !s.up.Load() {
		s.mu.Unlock()
		return value.Nil(), fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	l := s.replicas[obj]
	if l == nil || !s.follows[obj] {
		s.mu.Unlock()
		obsReplReadRefusals.Inc()
		return value.Nil(), fmt.Errorf("%w: %s at %s", ErrNotReplica, obj, s.id)
	}
	st, ok := l.At(ts)
	s.mu.Unlock()
	if !ok {
		obsReplReadRefusals.Inc()
		return value.Nil(), fmt.Errorf("%w: %s at %s below floor (snapshot %d)", ErrReplicaLag, obj, s.id, ts)
	}
	out, err := spec.Apply(st, inv)
	if err != nil {
		return value.Nil(), err
	}
	obsReplReads.Inc()
	return out.Result, nil
}

// unfollow drops a follower's copy (the migration recompute removed it from
// the object's replica set). The schema stays in the catalog — the WAL's
// ReplicaIn records still replay through it — but the follow and the
// version log are gone, so stale reads refuse. Control-plane, in-process:
// it works even on a crashed site, updating the stable follow catalog so
// the next recovery does not resurrect the copy.
func (s *Site) unfollow(obj histories.ObjectID) {
	s.mu.Lock()
	delete(s.follows, obj)
	if s.replicas != nil {
		delete(s.replicas, obj)
	}
	s.mu.Unlock()
}

// ReplicaStateKey returns the follower's newest version state key and
// timestamp for obj — the convergence oracle's probe.
func (s *Site) ReplicaStateKey(obj histories.ObjectID) (string, histories.Timestamp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return "", 0, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	l := s.replicas[obj]
	if l == nil {
		return "", 0, fmt.Errorf("%w: %s at %s", ErrNotReplica, obj, s.id)
	}
	return l.Head(nil).Key(), l.HeadTS(), nil
}

// Follows reports whether the site currently follows obj (for tests and
// oracles).
func (s *Site) Follows(obj histories.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.follows[obj]
}

// QueryReplicaRead asks a follower for a snapshot read of obj at ts on
// behalf of from: an idempotent query exchange like Hello, QueryHosting and
// QueryOutcome.
func (n *Network) QueryReplicaRead(from, to SiteID, obj histories.ObjectID, inv spec.Invocation, ts histories.Timestamp) (value.Value, error) {
	s, err := n.Site(to)
	if err != nil {
		return value.Nil(), err
	}
	type reply struct {
		v   value.Value
		err error
	}
	r, _, err := exchange(n, from, to, s, func() (r reply) {
		r.v, r.err = s.handleReplicaRead(obj, inv, ts)
		return r
	})
	if err == nil {
		err = r.err
	}
	return r.v, err
}

// --- the cluster-owned replicator ----------------------------------------

// replicaRoute is one object's versioned replica set.
type replicaRoute struct {
	leader    SiteID
	followers []SiteID
	v         uint64 // bumped whenever the set changes (migrations)
	static    *conflict.Static
	typ       adts.Type
}

// replTxn tracks a client transaction's replicated write set between its
// prepare (legs registered) and the completion of its last delivery.
type replTxn struct {
	ts          histories.Timestamp // 0 until stamped at commit
	legs        map[histories.ObjectID][]spec.Call
	outstanding int // enqueued deliveries not yet applied
}

// replicator is the cluster's replication control plane: routes, the stamp
// clock, per-follower delivery queues, the in-flight transaction set the
// stable timestamp is derived from, and the per-object pending counts the
// sync barrier drains.
type replicator struct {
	c            *Cluster
	factor       int
	origin       SiteID // "" — an external control plane a partition never severs
	drainTimeout time.Duration

	mu           sync.Mutex
	clock        histories.Timestamp
	routes       map[histories.ObjectID]*replicaRoute
	txns         map[histories.ActivityID]*replTxn
	queues       map[SiteID]*replQueue
	pendingByObj map[histories.ObjectID]int
	readPins     map[histories.ActivityID]histories.Timestamp
	readRR       int
	closed       bool

	wg sync.WaitGroup
}

// replItemKind discriminates delivery-queue entries.
type replItemKind int

const (
	replSeed replItemKind = iota
	replDeliver
)

// replItem is one queued delivery leg.
type replItem struct {
	kind  replItemKind
	obj   histories.ObjectID
	txn   histories.ActivityID // client transaction (replDeliver)
	calls []spec.Call
	ts    histories.Timestamp
	state spec.State // baseline (replSeed)
	typ   adts.Type  // schema (replSeed)
}

// replQueue is one follower's FIFO delivery queue, drained by a worker
// goroutine. FIFO plus stamp-under-mutex enqueueing makes every follower's
// apply order equal the stamp order, which keeps version logs append-only
// ascending.
type replQueue struct {
	rep  *replicator
	site SiteID

	mu      sync.Mutex
	cond    *sync.Cond
	items   []replItem
	stopped bool
}

func newReplQueue(rep *replicator, site SiteID) *replQueue {
	q := &replQueue{rep: rep, site: site}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an item. Called with rep.mu held, so enqueue order equals
// stamp order across every transaction.
func (q *replQueue) push(it replItem) {
	q.mu.Lock()
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *replQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// run is the worker loop: process the head item until it sticks (or is
// dropped as hopeless), then complete it. Head-of-line blocking is the
// point — it is what makes delivery order per follower equal stamp order.
func (q *replQueue) run() {
	defer q.rep.wg.Done()
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.stopped {
			q.cond.Wait()
		}
		if q.stopped {
			q.mu.Unlock()
			return
		}
		it := q.items[0]
		q.mu.Unlock()
		q.process(it)
		q.mu.Lock()
		q.items = q.items[1:]
		q.mu.Unlock()
		q.rep.completed(it)
	}
}

// process delivers one item, retrying retryable failures with a capped
// backoff until it succeeds or the queue stops. Each send carries the
// follower's epoch from the network's epoch table (no expect=0 messages);
// a crash orphans it, the refusal clears it from the table, and the next
// send handshakes afresh and redelivers — safe, since a delivery is
// idempotent by its request id.
func (q *replQueue) process(it replItem) {
	inj := q.rep.c.inj
	backoff := 100 * time.Microsecond
	const maxBackoff = 5 * time.Millisecond
	sleepAndGrow := func() {
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	for attempt := 0; ; attempt++ {
		q.mu.Lock()
		stopped := q.stopped
		q.mu.Unlock()
		if stopped {
			return
		}
		if attempt > 0 {
			obsReplDeliverRetry.Inc()
		}
		if inj.Fires(fault.ReplDeliverDrop) {
			obsReplDeliverDrops.Inc()
			sleepAndGrow()
			continue
		}
		epoch, err := q.rep.c.net.epochFor(q.rep.origin, q.site)
		if err != nil {
			sleepAndGrow()
			continue
		}
		switch it.kind {
		case replSeed:
			_, err = call(q.rep.c.net, q.rep.origin, q.site, epoch,
				replSeedReq{Obj: it.obj, Typ: it.typ, State: it.state, TS: it.ts},
				(*Site).handleReplicaSeed)
		case replDeliver:
			_, err = call(q.rep.c.net, q.rep.origin, q.site, epoch,
				replApplyReq{Obj: it.obj, Txn: it.txn, Calls: it.calls, TS: it.ts},
				(*Site).handleReplicaApply)
		}
		if err == nil {
			return
		}
		if errors.Is(err, ErrOrphaned) {
			continue // the follower crashed; re-handshake and redeliver
		}
		if cc.Retryable(err) {
			sleepAndGrow()
			continue
		}
		// Non-retryable (a diverged apply, an unfollowed object): the item
		// cannot ever stick. Dropping it keeps the queue live; the error
		// counter and the convergence oracle make the loss visible.
		obsReplApplyErrors.Inc()
		return
	}
}

// completed strikes a finished item from the pending books and wakes any
// drain waiting on its object.
func (rep *replicator) completed(it replItem) {
	rep.mu.Lock()
	if rep.pendingByObj[it.obj] > 0 {
		rep.pendingByObj[it.obj]--
	}
	if it.kind == replDeliver {
		if tx := rep.txns[it.txn]; tx != nil {
			tx.outstanding--
			if tx.outstanding <= 0 {
				delete(rep.txns, it.txn)
			}
		}
	}
	rep.mu.Unlock()
}

// queueFor returns (creating if needed) the follower's delivery queue.
// Called with rep.mu held.
func (rep *replicator) queueFor(site SiteID) *replQueue {
	q := rep.queues[site]
	if q == nil {
		q = newReplQueue(rep, site)
		rep.queues[site] = q
		rep.wg.Add(1)
		go q.run()
	}
	return q
}

// tracks reports whether obj has a replica route with at least one
// follower.
func (rep *replicator) tracks(obj histories.ObjectID) (adts.Type, bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	r := rep.routes[obj]
	if r == nil || len(r.followers) == 0 {
		return adts.Type{}, false
	}
	return r.typ, true
}

// prepare registers a transaction's leg on obj and applies the sync
// barrier: calls that do not form a proven-commutative class must wait for
// the object's in-flight deliveries to drain before the leader's 2PC
// prepare proceeds, so the eventual commit stamp exceeds every delivery it
// conflicts with.
func (rep *replicator) prepare(txn histories.ActivityID, obj histories.ObjectID, calls []spec.Call) error {
	rep.mu.Lock()
	route := rep.routes[obj]
	if route == nil || len(route.followers) == 0 {
		rep.mu.Unlock()
		return nil
	}
	tx := rep.txns[txn]
	if tx == nil {
		tx = &replTxn{legs: make(map[histories.ObjectID][]spec.Call)}
		rep.txns[txn] = tx
	}
	tx.legs[obj] = calls
	invs := make([]spec.Invocation, len(calls))
	for i, c := range calls {
		invs[i] = c.Inv
	}
	commuting := route.static.CommutativeClass(invs...)
	rep.mu.Unlock()
	if commuting {
		return nil
	}
	return rep.drainObject(obj)
}

// ship stamps a decided transaction and enqueues every registered leg to
// every follower, all under one mutex hold: the stamp order is the enqueue
// order on every queue, which FIFO delivery turns into the apply order at
// every follower. Idempotent — only the first leg's commit ships.
func (rep *replicator) ship(txn histories.ActivityID) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	tx := rep.txns[txn]
	if tx == nil || tx.ts != 0 {
		return
	}
	rep.clock++
	tx.ts = rep.clock
	objs := make([]histories.ObjectID, 0, len(tx.legs))
	for obj := range tx.legs {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		calls := tx.legs[obj]
		route := rep.routes[obj]
		if route == nil || len(calls) == 0 {
			continue
		}
		for _, f := range route.followers {
			rep.pendingByObj[obj]++
			tx.outstanding++
			rep.queueFor(f).push(replItem{kind: replDeliver, obj: obj, txn: txn, calls: calls, ts: tx.ts})
		}
	}
	if tx.outstanding == 0 {
		delete(rep.txns, txn)
	}
}

// forget discards an aborted transaction's registered legs (nothing was
// enqueued — ship only runs after a commit decision) and releases any read
// pin.
func (rep *replicator) forget(txn histories.ActivityID) {
	rep.mu.Lock()
	if tx := rep.txns[txn]; tx != nil && tx.ts == 0 {
		delete(rep.txns, txn)
	}
	delete(rep.readPins, txn)
	rep.mu.Unlock()
}

// stableTS returns the newest snapshot timestamp at which every committed
// transaction is fully applied at every follower: one below the smallest
// stamp still in flight, or the clock when nothing is.
func (rep *replicator) stableTS() histories.Timestamp {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.stableTSLocked()
}

func (rep *replicator) stableTSLocked() histories.Timestamp {
	stable := rep.clock
	for _, tx := range rep.txns {
		if tx.ts != 0 && tx.ts-1 < stable {
			stable = tx.ts - 1
		}
	}
	return stable
}

// drainObject waits until obj has no in-flight deliveries, refusing
// retryably at the drain timeout (a follower may be down; blocking 2PC on
// it would couple the leader's availability to every follower's).
func (rep *replicator) drainObject(obj histories.ObjectID) error {
	obsReplDrains.Inc()
	deadline := time.Now().Add(rep.drainTimeout)
	for {
		rep.mu.Lock()
		pending := rep.pendingByObj[obj]
		rep.mu.Unlock()
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			obsReplDrainTimeouts.Inc()
			return fmt.Errorf("dist: sync barrier on %s timed out with %d deliveries in flight: %w", obj, pending, cc.ErrUnavailable)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// drainAll waits until every queue is empty and every transaction's
// deliveries have applied — replication convergence, for oracles and
// benchmarks.
func (rep *replicator) drainAll(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		rep.mu.Lock()
		pending := 0
		for _, n := range rep.pendingByObj {
			pending += n
		}
		inflight := len(rep.txns)
		rep.mu.Unlock()
		if pending == 0 && inflight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: replication drain timed out (%d deliveries, %d transactions in flight): %w", pending, inflight, cc.ErrUnavailable)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// pinRead returns the transaction's pinned snapshot timestamp, pinning the
// stable timestamp at first read.
func (rep *replicator) pinRead(txn histories.ActivityID) histories.Timestamp {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if ts, ok := rep.readPins[txn]; ok {
		return ts
	}
	ts := rep.stableTSLocked()
	rep.readPins[txn] = ts
	return ts
}

func (rep *replicator) releaseRead(txn histories.ActivityID) {
	rep.mu.Lock()
	delete(rep.readPins, txn)
	rep.mu.Unlock()
}

// routeSnapshot returns the object's follower list and route version.
func (rep *replicator) routeSnapshot(obj histories.ObjectID) ([]SiteID, uint64) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	r := rep.routes[obj]
	if r == nil {
		return nil, 0
	}
	return append([]SiteID(nil), r.followers...), r.v
}

func (rep *replicator) routeVersion(obj histories.ObjectID) uint64 {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if r := rep.routes[obj]; r != nil {
		return r.v
	}
	return 0
}

// nextRR returns a rotation offset for read fan-out.
func (rep *replicator) nextRR() int {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.readRR++
	return rep.readRR
}

// close stops every delivery queue and waits the workers out.
func (rep *replicator) close() {
	rep.mu.Lock()
	if rep.closed {
		rep.mu.Unlock()
		return
	}
	rep.closed = true
	queues := make([]*replQueue, 0, len(rep.queues))
	for _, q := range rep.queues {
		queues = append(queues, q)
	}
	rep.mu.Unlock()
	for _, q := range queues {
		q.stop()
	}
	rep.wg.Wait()
}

// --- cluster surface ------------------------------------------------------

// EnableReplication turns on replica groups at the given factor: every
// tracked object's replica set becomes the ring's Owners walk (leader
// first), and each follower is seeded with the leader's committed baseline
// through its delivery queue. A factor of one (or less) leaves the
// single-home model untouched — no replicator, no overhead. Call after the
// cluster's sites have joined and objects are tracked, before traffic.
func (c *Cluster) EnableReplication(factor int) error {
	if factor <= 1 {
		return nil
	}
	c.mu.Lock()
	if c.repl != nil {
		c.mu.Unlock()
		return fmt.Errorf("dist: replication already enabled")
	}
	rep := &replicator{
		c:            c,
		factor:       factor,
		drainTimeout: defaultDrainTimeout,
		routes:       make(map[histories.ObjectID]*replicaRoute),
		txns:         make(map[histories.ActivityID]*replTxn),
		queues:       make(map[SiteID]*replQueue),
		pendingByObj: make(map[histories.ObjectID]int),
		readPins:     make(map[histories.ActivityID]histories.Timestamp),
	}
	objs := make([]histories.ObjectID, 0, len(c.placement))
	for obj := range c.placement {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	type seedPlan struct {
		obj       histories.ObjectID
		leader    SiteID
		followers []SiteID
	}
	plans := make([]seedPlan, 0, len(objs))
	for _, obj := range objs {
		leader := c.placement[obj]
		followers := replicaFollowers(c.ring, obj, factor, leader)
		plans = append(plans, seedPlan{obj: obj, leader: leader, followers: followers})
	}
	placeV := c.placeV
	c.repl = rep
	c.mu.Unlock()

	for _, p := range plans {
		ls, err := c.net.Site(p.leader)
		if err != nil {
			return err
		}
		ls.mu.Lock()
		typ, known := ls.types[p.obj]
		o := ls.objects[p.obj]
		ls.mu.Unlock()
		if !known || o == nil {
			return fmt.Errorf("dist: enable replication: %s not hosted at its leader %s", p.obj, p.leader)
		}
		base := o.Base()
		rep.mu.Lock()
		rep.clock++
		seedTS := rep.clock
		rep.routes[p.obj] = &replicaRoute{
			leader:    p.leader,
			followers: p.followers,
			v:         placeV,
			static:    conflict.StaticForType(typ),
			typ:       typ,
		}
		for _, f := range p.followers {
			rep.pendingByObj[p.obj]++
			rep.queueFor(f).push(replItem{kind: replSeed, obj: p.obj, ts: seedTS, state: base, typ: typ})
		}
		rep.mu.Unlock()
	}
	return nil
}

// replicaFollowers computes an object's follower set: the ring's Owners
// walk at the replication factor, minus the current leader, capped at
// factor-1 members.
func replicaFollowers(ring *Ring, obj histories.ObjectID, factor int, leader SiteID) []SiteID {
	owners := ring.Owners(obj, factor)
	followers := make([]SiteID, 0, factor-1)
	for _, s := range owners {
		if s == leader || len(followers) == factor-1 {
			continue
		}
		followers = append(followers, s)
	}
	return followers
}

// ReplicationFactor returns the configured factor (1 when replication is
// off).
func (c *Cluster) ReplicationFactor() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.repl == nil {
		return 1
	}
	return c.repl.factor
}

// replicator returns the replication control plane, nil when off.
func (c *Cluster) replicator() *replicator {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repl
}

// ReplicaSet returns an object's current replica set, leader first (for
// tests and oracles). Factor one returns just the home.
func (c *Cluster) ReplicaSet(obj histories.ObjectID) []SiteID {
	home, ok := c.HomeOf(obj)
	if !ok {
		return nil
	}
	rep := c.replicator()
	if rep == nil {
		return []SiteID{home}
	}
	followers, _ := rep.routeSnapshot(obj)
	return append([]SiteID{home}, followers...)
}

// ReplicationIdle waits until every queued delivery has applied at its
// follower — the convergence point oracles and benchmarks measure against.
// A no-op when replication is off.
func (c *Cluster) ReplicationIdle(timeout time.Duration) error {
	rep := c.replicator()
	if rep == nil {
		return nil
	}
	return rep.drainAll(timeout)
}

// Close shuts down the replication delivery workers (a no-op when
// replication is off). Call at harness teardown.
func (c *Cluster) Close() {
	rep := c.replicator()
	if rep != nil {
		rep.close()
	}
}

// ReadRouter returns the read-any router for read-only activities: a
// function mapping an object to a snapshot-read resource against its
// follower set, or nil for unreplicated objects. The router itself is nil
// when replication is off, so the transaction layer falls back to the
// locked leader path — which is exactly the factor-1 baseline.
func (c *Cluster) ReadRouter() func(histories.ObjectID) cc.Resource {
	rep := c.replicator()
	if rep == nil {
		return nil
	}
	return func(obj histories.ObjectID) cc.Resource {
		typ, ok := rep.tracks(obj)
		if !ok {
			return nil
		}
		return &replicaReadResource{rep: rep, obj: obj, isWrite: typ.IsWrite}
	}
}

// replicaReadResource is the read-any proxy: every invocation executes at
// some follower against the transaction's pinned snapshot timestamp. It
// never locks, never prepares, never appears in 2PC — the snapshot
// timestamp is the whole serialisation argument (hybrid atomicity's
// timestamp order).
type replicaReadResource struct {
	rep     *replicator
	obj     histories.ObjectID
	isWrite func(op string) bool
}

var _ cc.Resource = (*replicaReadResource)(nil)

// ObjectID implements cc.Resource.
func (r *replicaReadResource) ObjectID() histories.ObjectID { return r.obj }

// Invoke implements cc.Resource: pin the snapshot, rotate over the
// followers, and validate the route version afterwards so a read that
// raced a replica-set change (migration) refuses instead of returning a
// value from a site that just left the set. A mutating operation is
// refused with cc.ErrReadOnly: a snapshot has nowhere to put its effect.
func (r *replicaReadResource) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if r.isWrite != nil && r.isWrite(inv.Op) {
		return value.Nil(), fmt.Errorf("dist: %s invokes %s at replicas of %s: %w", txn.ID, inv.Op, r.obj, cc.ErrReadOnly)
	}
	ts := r.rep.pinRead(txn.ID)
	followers, v := r.rep.routeSnapshot(r.obj)
	if len(followers) == 0 {
		return value.Nil(), fmt.Errorf("%w: %s has no followers", ErrNotReplica, r.obj)
	}
	start := r.rep.nextRR()
	var lastErr error
	for i := range followers {
		f := followers[(start+i)%len(followers)]
		val, err := r.rep.c.net.QueryReplicaRead(r.rep.origin, f, r.obj, inv, ts)
		if err != nil {
			lastErr = err
			continue
		}
		if r.rep.routeVersion(r.obj) != v {
			return value.Nil(), fmt.Errorf("dist: replica set of %s changed during read: %w", r.obj, cc.ErrUnavailable)
		}
		return val, nil
	}
	return value.Nil(), fmt.Errorf("dist: replica read of %s failed at every follower: %w", r.obj, errors.Join(lastErr, cc.ErrUnavailable))
}

// SnapshotRead marks the resource for the transaction runtime: reads here
// are serialized by timestamp alone, so a transaction joined only to
// snapshot readers skips two-phase commit.
func (r *replicaReadResource) SnapshotRead() bool { return true }

// Prepare implements cc.Resource: snapshot reads have nothing to prepare.
func (r *replicaReadResource) Prepare(*cc.TxnInfo) error { return nil }

// Commit implements cc.Resource: release the snapshot pin.
func (r *replicaReadResource) Commit(txn *cc.TxnInfo, _ histories.Timestamp) {
	r.rep.releaseRead(txn.ID)
}

// Abort implements cc.Resource: release the snapshot pin.
func (r *replicaReadResource) Abort(txn *cc.TxnInfo) {
	r.rep.releaseRead(txn.ID)
}
