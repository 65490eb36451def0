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
//     at-most-once message layer, idempotent replica-side apply keyed by
//     the delivery's commit stamp, which totally orders it at its object:
//     a delivery is one self-contained log record, needs no cached reply
//     and makes no transaction record. Operations in a
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

// replicaReq carries one replica delivery to a follower: a seed (State
// set) adopts the leader's committed baseline and the object's schema, any
// other delivery carries one committed transaction's calls on the object.
// TS is the replicator's stamp, and at a follower it is the delivery's whole
// identity: stamps are drawn under one mutex and each follower's queue is
// FIFO, so a follower sees them strictly ascending.
type replicaReq struct {
	Obj   histories.ObjectID
	TS    histories.Timestamp
	Typ   adts.Type   // seed
	State spec.State  // seed
	Calls []spec.Call // delivery
}

// handleReplica applies a seed or delivery at a follower: the delivery is
// made durable as one ReplicaIn record and then installed in the version
// log. A seed's schema enters the stable catalog before its record (redo
// and checkpoints replay through it), but the site follows the object only
// once the seed is installed, so every follow has a seed in the log to
// rebuild from. A crash before the install fails the delivery; the
// redelivery finds it redone, or logs a seed again.
//
// A stamp at or below the log's floor, or equal to its head, was applied
// already and is acknowledged as redundant: only the head can repeat — a
// duplicate or a retransmission inside one exchange — or, after recovery
// rebuilt the log at the watermark, something below the floor. A stamp
// strictly between floor and head is a protocol bug and is refused.
// fault.ReplApplyCrash opens two windows in a delivery: before its record
// (the redelivery logs it) and after it, before the install (recovery
// redoes it and the redelivery is redundant).
func (s *Site) handleReplica(d delivery, req replicaReq) (struct{}, error) {
	seed := req.State != nil
	s.mu.Lock()
	if err := s.admitLocked(d.expect); err != nil {
		s.mu.Unlock()
		return struct{}{}, err
	}
	l := s.replicaLocked(req.Obj)
	if !seed && l == nil {
		s.mu.Unlock()
		return struct{}{}, fmt.Errorf("%w: %s at %s", ErrNotReplica, req.Obj, s.id)
	}
	if l != nil {
		switch floor, head := l.Floor(), l.HeadTS(); {
		case req.TS <= floor || req.TS == head:
			s.mu.Unlock()
			obsReplRedundant.Inc()
			return struct{}{}, nil
		case req.TS < head:
			s.mu.Unlock()
			obsReplApplyErrors.Inc()
			return struct{}{}, fmt.Errorf("dist: out-of-order delivery of %s at %s: ts %d after %d", req.Obj, s.id, req.TS, head)
		}
	}
	st := req.State
	if seed {
		// The default guard makes the catalog entry complete if this site
		// is later promoted to host the object (migration, recovery).
		s.catalogLocked(req.Obj, req.Typ, nil)
	} else {
		st = l.Head(nil)
	}
	s.mu.Unlock()
	for _, c := range req.Calls {
		out, err := spec.Apply(st, c.Inv)
		if err != nil {
			// The calls committed at the leader, so the spec permitted them
			// on the leader's state; a refusal here means the copies have
			// diverged, and the delivery is refused before it is logged.
			obsReplApplyErrors.Inc()
			return struct{}{}, fmt.Errorf("dist: delivery of %s at %s (ts %d) diverged: %v", req.Obj, s.id, req.TS, err)
		}
		st = out.Next
	}
	if !seed && s.inj.Fires(fault.ReplApplyCrash) {
		s.Crash()
		return struct{}{}, fmt.Errorf("%w: %s (crashed before logging delivery)", ErrSiteDown, s.id)
	}
	rec := recovery.Record{Kind: recovery.RecordIntentions, Object: req.Obj, Migrate: recovery.ReplicaIn, Calls: req.Calls, TS: req.TS}
	if seed {
		rec.States = map[histories.ObjectID]spec.State{req.Obj: req.State}
	}
	if err := s.disk.Append(rec); err != nil {
		return struct{}{}, fmt.Errorf("dist: delivery of %s at %s (ts %d): %w", req.Obj, s.id, req.TS, errors.Join(err, cc.ErrUnavailable))
	}
	if !seed && s.inj.Fires(fault.ReplApplyCrash) {
		s.Crash()
		return struct{}{}, fmt.Errorf("%w: %s (crashed after logging delivery)", ErrSiteDown, s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return struct{}{}, fmt.Errorf("%w: %s (crashed before installing delivery)", ErrSiteDown, s.id)
	}
	// A crash and recovery since the append rebuilt the log from the WAL,
	// which already holds this delivery: the log then ends at req.TS and
	// the version is not appended twice. The record is there: the catalog
	// survives crashes.
	switch r := s.objects[req.Obj]; {
	case seed:
		r.follows, r.replica = true, baselineLog(req.TS, st)
	case r.replica != nil && req.TS > r.replica.HeadTS():
		_ = r.replica.Append(req.TS, st) // above the head: accepted
		r.replica.Trim(replicaVersionCap)
	}
	if seed {
		obsReplSeeds.Inc()
	} else {
		obsReplDeliveries.Inc()
	}
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
	l := s.replicaLocked(obj)
	if l == nil {
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
	if r := s.objects[obj]; r != nil {
		r.follows, r.replica = false, nil
	}
	s.mu.Unlock()
}

// replicaLocked returns the follower's version log of obj, nil when the
// site does not follow it or is down. Under s.mu.
func (s *Site) replicaLocked(obj histories.ObjectID) *ccrt.VersionLog {
	if r := s.objects[obj]; r != nil {
		return r.replica
	}
	return nil
}

// ReplicaStateKey returns the follower's newest version state key and
// timestamp for obj — the convergence oracle's probe.
func (s *Site) ReplicaStateKey(obj histories.ObjectID) (string, histories.Timestamp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return "", 0, fmt.Errorf("%w: %s", ErrSiteDown, s.id)
	}
	l := s.replicaLocked(obj)
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
	r := s.objects[obj]
	return r != nil && r.follows
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

// replicaRoute is one replicated object: its versioned follower set (the
// leader is the cluster's placement), its deliveries in flight, and the
// one read proxy the read router hands out for it.
type replicaRoute struct {
	obj       histories.ObjectID
	followers []SiteID // replaced, never mutated: readers share it unlocked once read
	v         uint64   // bumped whenever the set changes (migrations)
	static    *conflict.Static
	typ       adts.Type
	pending   int // enqueued deliveries and seeds not yet completed: what the sync barrier drains
	reader    replicaReadResource
}

// newRoute builds obj's route, with no followers yet, and its read proxy.
func (rep *replicator) newRoute(obj histories.ObjectID, typ adts.Type) *replicaRoute {
	r := &replicaRoute{obj: obj, static: conflict.StaticForType(typ), typ: typ}
	r.reader = replicaReadResource{rep: rep, route: r}
	return r
}

// replTxn tracks a client transaction's replicated write set between its
// prepare (legs registered) and the completion of its last delivery.
type replTxn struct {
	ts          histories.Timestamp // 0 until stamped at commit
	legs        []replLeg           // in prepare order
	outstanding int                 // enqueued deliveries not yet applied
}

// replLeg is a transaction's calls on one replicated object.
type replLeg struct {
	route *replicaRoute
	calls []spec.Call
}

// replicator is the cluster's replication control plane: routes (with
// the pending counts the sync barrier drains), the stamp clock,
// per-follower delivery queues, the prepared transactions not yet stamped,
// and the stamped ones still in flight, in stamp order — the head of that
// list is what the stable timestamp is derived from.
type replicator struct {
	c            *Cluster
	factor       int
	origin       SiteID // "" — an external control plane a partition never severs
	drainTimeout time.Duration

	mu       sync.Mutex
	clock    histories.Timestamp
	routes   map[histories.ObjectID]*replicaRoute
	txns     map[histories.ActivityID]*replTxn // prepared, not yet shipped
	inflight []*replTxn                        // shipped, ascending stamps; the head is unfinished
	queues   map[SiteID]*replQueue
	readPins map[histories.ActivityID]histories.Timestamp
	readRR   int
	closed   bool

	wg sync.WaitGroup
}

// replItem is one queued delivery leg and the client transaction it
// completes (nil for a seed).
type replItem struct {
	tx  *replTxn
	req replicaReq
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
// idempotent by its stamp.
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
		_, err = call(q.rep.c.net, q.rep.origin, q.site, epoch, it.req, (*Site).handleReplica)
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

// completed strikes a finished item from the pending books, which wakes
// any drain waiting on its object, and pops the finished prefix of the
// in-flight list: a transaction leaves it only once every transaction
// stamped before it has, so the head stays the oldest one unfinished.
func (rep *replicator) completed(it replItem) {
	rep.mu.Lock()
	if r := rep.routes[it.req.Obj]; r.pending > 0 {
		r.pending--
	}
	if it.tx != nil {
		it.tx.outstanding--
		for len(rep.inflight) > 0 && rep.inflight[0].outstanding == 0 {
			rep.inflight[0] = nil
			rep.inflight = rep.inflight[1:]
		}
	}
	rep.mu.Unlock()
}

// seedLocked draws one stamp and queues a seed of r's object's committed
// baseline under it to each of followers. Under rep.mu.
func (rep *replicator) seedLocked(r *replicaRoute, followers []SiteID, base spec.State) {
	rep.clock++
	for _, f := range followers {
		r.pending++
		rep.queueFor(f).push(replItem{req: replicaReq{Obj: r.obj, TS: rep.clock, Typ: r.typ, State: base}})
	}
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

// prepare registers a transaction's leg on obj and applies the sync
// barrier: calls that do not form a proven-commutative class must wait for
// the object's in-flight deliveries to drain before the leader's 2PC
// prepare proceeds, so the eventual commit stamp exceeds every delivery it
// conflicts with. The runtime prepares each joined object once, so each
// leg is registered once.
func (rep *replicator) prepare(txn histories.ActivityID, obj histories.ObjectID, calls []spec.Call) error {
	rep.mu.Lock()
	route := rep.routes[obj]
	if route == nil || len(route.followers) == 0 {
		rep.mu.Unlock()
		return nil
	}
	tx := rep.txns[txn]
	if tx == nil {
		tx = &replTxn{}
		rep.txns[txn] = tx
	}
	tx.legs = append(tx.legs, replLeg{route: route, calls: calls})
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

// ship stamps a decided transaction, moves it from the prepared table to
// the tail of the in-flight list, and enqueues every registered leg to
// every follower, all under one mutex hold: the stamp order is the list
// order and the enqueue order on every queue, which FIFO delivery turns
// into the apply order at every follower. Idempotent — only the first
// leg's commit finds the transaction prepared.
func (rep *replicator) ship(txn histories.ActivityID) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	tx := rep.txns[txn]
	if tx == nil {
		return
	}
	delete(rep.txns, txn)
	rep.clock++
	tx.ts = rep.clock
	for _, l := range tx.legs {
		if len(l.calls) == 0 {
			continue
		}
		for _, f := range l.route.followers {
			l.route.pending++
			tx.outstanding++
			rep.queueFor(f).push(replItem{tx: tx, req: replicaReq{Obj: l.route.obj, TS: tx.ts, Calls: l.calls}})
		}
	}
	if tx.outstanding > 0 {
		rep.inflight = append(rep.inflight, tx)
	}
}

// forget discards an aborted transaction's registered legs (nothing was
// enqueued — ship only runs after a commit decision) and releases any read
// pin.
func (rep *replicator) forget(txn histories.ActivityID) {
	rep.mu.Lock()
	delete(rep.txns, txn)
	delete(rep.readPins, txn)
	rep.mu.Unlock()
}

// stableTSLocked returns the newest snapshot timestamp at which every
// committed transaction is fully applied at every follower: one below the
// oldest stamp still in flight, or the clock when nothing is. Under rep.mu.
func (rep *replicator) stableTSLocked() histories.Timestamp {
	if len(rep.inflight) > 0 {
		return rep.inflight[0].ts - 1
	}
	return rep.clock
}

// drainObject waits until obj has no in-flight deliveries, refusing
// retryably at the drain timeout (a follower may be down; blocking 2PC on
// it would couple the leader's availability to every follower's).
func (rep *replicator) drainObject(obj histories.ObjectID) error {
	obsReplDrains.Inc()
	deadline := time.Now().Add(rep.drainTimeout)
	for {
		rep.mu.Lock()
		pending := rep.routes[obj].pending // prepare found the route; routes are never deleted
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
		for _, r := range rep.routes {
			pending += r.pending
		}
		inflight := len(rep.txns) + len(rep.inflight)
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

func (rep *replicator) releaseRead(txn histories.ActivityID) {
	rep.mu.Lock()
	delete(rep.readPins, txn)
	rep.mu.Unlock()
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
		o, typ, err := ls.object(p.obj)
		if err != nil {
			return fmt.Errorf("dist: enable replication: %s at its leader %s: %w", p.obj, p.leader, err)
		}
		base := o.Base()
		rep.mu.Lock()
		r := rep.newRoute(p.obj, typ)
		r.followers, r.v = p.followers, placeV
		rep.routes[p.obj] = r
		rep.seedLocked(r, p.followers, base)
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
	var followers []SiteID
	rep.mu.Lock()
	if r := rep.routes[obj]; r != nil {
		followers = r.followers
	}
	rep.mu.Unlock()
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
// function mapping an object to its route's snapshot-read resource, or nil
// for unreplicated objects. The router itself is nil when replication is
// off, so the transaction layer falls back to the locked leader path —
// which is exactly the factor-1 baseline.
func (c *Cluster) ReadRouter() func(histories.ObjectID) cc.Resource {
	rep := c.replicator()
	if rep == nil {
		return nil
	}
	return func(obj histories.ObjectID) cc.Resource {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		if r := rep.routes[obj]; r != nil && len(r.followers) > 0 {
			return &r.reader
		}
		return nil
	}
}

// replicaReadResource is the read-any proxy of one route, shared by every
// read-only transaction: every invocation executes at some follower against
// the transaction's pinned snapshot timestamp, kept in the replicator's pin
// table. It never locks, never prepares, never appears in 2PC — the
// snapshot timestamp is the whole serialisation argument (hybrid
// atomicity's timestamp order).
type replicaReadResource struct {
	rep   *replicator
	route *replicaRoute
}

var _ cc.Resource = (*replicaReadResource)(nil)

// ObjectID implements cc.Resource.
func (r *replicaReadResource) ObjectID() histories.ObjectID { return r.route.obj }

// Invoke implements cc.Resource: one section of rep.mu pins the snapshot
// (at the transaction's first read) and takes the followers, the route
// version and a rotation offset; a second validates the route version after
// the read, so a read that raced a replica-set change (migration) refuses
// instead of returning a value from a site that just left the set. A
// mutating operation is refused with cc.ErrReadOnly: a snapshot has nowhere
// to put its effect.
func (r *replicaReadResource) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if isWrite := r.route.typ.IsWrite; isWrite != nil && isWrite(inv.Op) {
		return value.Nil(), fmt.Errorf("dist: %s invokes %s at replicas of %s: %w", txn.ID, inv.Op, r.route.obj, cc.ErrReadOnly)
	}
	rep := r.rep
	rep.mu.Lock()
	ts, pinned := rep.readPins[txn.ID]
	if !pinned {
		ts = rep.stableTSLocked()
		rep.readPins[txn.ID] = ts
	}
	followers, v := r.route.followers, r.route.v
	rep.readRR++
	start := rep.readRR
	rep.mu.Unlock()
	if len(followers) == 0 {
		return value.Nil(), fmt.Errorf("%w: %s has no followers", ErrNotReplica, r.route.obj)
	}
	var lastErr error
	for i := range followers {
		f := followers[(start+i)%len(followers)]
		val, err := rep.c.net.QueryReplicaRead(rep.origin, f, r.route.obj, inv, ts)
		if err != nil {
			lastErr = err
			continue
		}
		rep.mu.Lock()
		moved := r.route.v != v
		rep.mu.Unlock()
		if moved {
			return value.Nil(), fmt.Errorf("dist: replica set of %s changed during read: %w", r.route.obj, cc.ErrUnavailable)
		}
		return val, nil
	}
	return value.Nil(), fmt.Errorf("dist: replica read of %s failed at every follower: %w", r.route.obj, errors.Join(lastErr, cc.ErrUnavailable))
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
