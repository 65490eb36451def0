package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// migrateBackoff paces migration retry attempts: migrations are rare
// control-plane work, so a flat pause beats tuned exponential machinery.
const migrateBackoff = 2 * time.Millisecond

// sleepCtx waits d, honouring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Observability for the cluster layer.
var (
	obsClusterMoves   = obs.Default.Counter("dist.cluster.moves")
	obsClusterRefused = obs.Default.Counter("dist.cluster.moved.refused")
	obsClusterJoins   = obs.Default.Counter("dist.cluster.joins")
	obsClusterLeaves  = obs.Default.Counter("dist.cluster.leaves")
)

// Cluster is the elastic layer over a set of sites: a consistent-hash ring
// proposes where each object should live, an authoritative placement map
// records where each object actually lives, and shard migrations — each an
// ordinary two-participant transaction through the 2PC/termination
// machinery — move objects between the two. Placement changes happen
// exactly when a migration transaction commits, never implicitly, so a
// crash anywhere leaves every object singly-homed.
//
// The placement map carries a monotonically increasing placement version;
// client proxies pin the version their route was computed from and the
// sites refuse stale routes with ErrMoved (retryable — the retry re-routes
// from fresh placement).
type Cluster struct {
	net  *Network
	pool *Pool
	inj  *fault.Injector

	mu        sync.Mutex
	ring      *Ring
	placement map[histories.ObjectID]SiteID
	placeV    uint64
	repl      *replicator // replica-group control plane; nil at factor 1

	// migMu serialises migrations: one shard moves at a time, keeping the
	// placement-version history linear.
	migMu  sync.Mutex
	migSeq atomic.Int64
}

// NewCluster returns an empty cluster over the network whose migrations
// decide through the coordinator pool. vnodes configures the placement
// ring (non-positive selects the default); inj, when set, arms the
// migration fault windows (fault.MigratePartition here, the migrate.crash.*
// points at the sites).
func NewCluster(net *Network, pool *Pool, vnodes int, inj *fault.Injector) *Cluster {
	return &Cluster{
		net:       net,
		pool:      pool,
		inj:       inj,
		ring:      NewRing(vnodes),
		placement: make(map[histories.ObjectID]SiteID),
		placeV:    1,
	}
}

// Join adds a site to the placement ring and adopts the objects it already
// hosts into the placement map. Joining changes only where new placement
// targets fall; objects move when Rebalance migrates them.
func (c *Cluster) Join(site SiteID) error {
	s, err := c.net.Site(site)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ring.Add(site); err != nil {
		return err
	}
	for _, obj := range s.HostedObjects() {
		if _, tracked := c.placement[obj]; !tracked {
			c.placement[obj] = site
		}
	}
	obsClusterJoins.Inc()
	return nil
}

// Leave removes a site from the placement ring. Objects it still hosts
// stay tracked at it until Rebalance migrates them off — a leave is an
// intention, not an eviction.
func (c *Cluster) Leave(site SiteID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ring.Remove(site); err != nil {
		return err
	}
	obsClusterLeaves.Inc()
	return nil
}

// Members returns the ring's member sites, sorted.
func (c *Cluster) Members() []SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Sites()
}

// PlaceVersion returns the current placement version.
func (c *Cluster) PlaceVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placeV
}

// HomeOf returns the site an object currently lives at.
func (c *Cluster) HomeOf(obj histories.ObjectID) (SiteID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	site, ok := c.placement[obj]
	return site, ok
}

// Objects returns every tracked object, sorted.
func (c *Cluster) Objects() []histories.ObjectID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]histories.ObjectID, 0, len(c.placement))
	for obj := range c.placement {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Move is one planned migration.
type Move struct {
	Object histories.ObjectID
	From   SiteID
	To     SiteID
}

// Plan diffs the placement map against the ring's proposals and returns
// the moves that would align them, sorted by object.
func (c *Cluster) Plan() []Move {
	c.mu.Lock()
	defer c.mu.Unlock()
	var moves []Move
	for obj, home := range c.placement {
		target, ok := c.ring.Owner(obj)
		if ok && target != home {
			moves = append(moves, Move{Object: obj, From: home, To: target})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Object < moves[j].Object })
	return moves
}

// Rebalance migrates every object whose home disagrees with the ring until
// placement and ring agree or ctx expires. Each move is retried through
// Migrate's own retry budget; the first persistent failure is returned
// (the next Rebalance continues from wherever this one stopped).
func (c *Cluster) Rebalance(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		moves := c.Plan()
		if len(moves) == 0 {
			return nil
		}
		for _, m := range moves {
			if err := c.Migrate(ctx, m.Object, m.To); err != nil {
				return fmt.Errorf("dist: rebalance %s -> %s: %w", m.Object, m.To, err)
			}
		}
	}
}

// Migrate moves one object to dest as a transaction: export (freeze +
// copy) at the source, stage at the destination, then two-phase commit
// over the Migrate-marked intentions both halves force at prepare. The
// placement map advances only after the decision is durably committed. A
// retryable failure (busy object, crash window, partition) aborts the
// attempt and retries under the usual backoff; an orphaned decision
// (coordinator crashed mid-Decide) broadcasts nothing and leaves the
// termination protocol to resolve the halves before a later attempt
// reconciles placement.
func (c *Cluster) Migrate(ctx context.Context, obj histories.ObjectID, dest SiteID) error {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 25; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			// Crude fixed backoff: migrations are rare control-plane work.
			if err := sleepCtx(ctx, migrateBackoff); err != nil {
				return err
			}
		}
		done, err := c.migrateOnce(obj, dest)
		if done {
			return err
		}
		lastErr = err
		if !cc.Retryable(err) {
			return err
		}
	}
	return fmt.Errorf("dist: migrate %s to %s: retries exhausted: %w", obj, dest, lastErr)
}

// migrateOnce runs one migration attempt. done reports whether the outcome
// is final (success, object already at dest, or a non-retryable failure).
func (c *Cluster) migrateOnce(obj histories.ObjectID, dest SiteID) (done bool, err error) {
	c.mu.Lock()
	src, tracked := c.placement[obj]
	ringv := c.placeV + 1
	c.mu.Unlock()
	if !tracked {
		return true, fmt.Errorf("dist: cluster does not track object %s", obj)
	}
	if src == dest {
		return true, nil
	}
	txn := &cc.TxnInfo{
		ID:           histories.ActivityID(fmt.Sprintf("M%d:%s", c.migSeq.Add(1), obj)),
		Seq:          c.migSeq.Load(),
		Participants: []string{string(src), string(dest)},
	}

	// Migration traffic travels between the two halves — the copy is
	// literally shipped site-to-site — so each peer leg originates at the
	// counterpart site. A partition cutting either half off then severs the
	// migration itself (the copy, the votes, the outcome broadcast), not
	// just its background termination traffic; the durable decision still
	// lands at the coordinator pool, which is the control plane.
	srcPeer, err := newMigPeer(c.net, dest, src, obj)
	if err != nil {
		return false, err
	}
	dstPeer, err := newMigPeer(c.net, src, dest, obj)
	if err != nil {
		return false, err
	}

	// Copy phase: freeze + export at the source, stage at the destination.
	exp, err := srcPeer.export(txn)
	if err != nil {
		srcPeer.abort(txn)
		obsMigrationAborts.Inc()
		return false, err
	}
	// Replica groups move as a set: with the object frozen (no new commits
	// can ship deliveries), drain its in-flight deliveries so every
	// retained follower has folded in everything the exported baseline
	// contains before the set is recomputed. A drain timeout (a follower
	// down) aborts the attempt retryably.
	if rep := c.replicator(); rep != nil {
		if derr := rep.drainObject(obj); derr != nil {
			srcPeer.abort(txn)
			obsMigrationAborts.Inc()
			return false, derr
		}
	}
	if err := dstPeer.stage(txn, exp); err != nil {
		srcPeer.abort(txn)
		dstPeer.abort(txn)
		obsMigrationAborts.Inc()
		return false, err
	}

	// fault.MigratePartition: an injected partition window that isolates
	// one half for the rest of the attempt, alternating sides, so chaos
	// exercises both "source unreachable" and "destination unreachable"
	// mid-migration. Healed before the attempt returns.
	if c.inj.Fires(fault.MigratePartition) {
		isolate := src
		if ringv%2 == 0 {
			isolate = dest
		}
		c.net.Partition([]SiteID{isolate})
		defer c.net.Heal()
	}

	// Decision phase: ordinary two-phase commit over the two halves.
	c.pool.Begin(txn.ID)
	if err := srcPeer.prepare(txn, recovery.MigrateOut, ringv); err != nil {
		c.abortMigration(txn, srcPeer, dstPeer)
		return false, err
	}
	if err := dstPeer.prepare(txn, recovery.MigrateIn, ringv); err != nil {
		c.abortMigration(txn, srcPeer, dstPeer)
		return false, err
	}
	if err := c.pool.Decide(txn.ID, true); err != nil {
		if errors.Is(err, cc.ErrCoordinatorDown) {
			// Orphaned: the decision may or may not be durable. Broadcast
			// nothing; the prepared halves resolve through termination and
			// a later Reconcile adopts whatever they decided.
			obsMigrationOrphans.Inc()
			return false, err
		}
		c.abortMigration(txn, srcPeer, dstPeer)
		return false, err
	}
	srcPeer.commit(txn)
	dstPeer.commit(txn)
	c.mu.Lock()
	c.placement[obj] = dest
	if ringv > c.placeV {
		c.placeV = ringv
	}
	rep := c.repl
	c.mu.Unlock()
	if rep != nil {
		c.recomputeReplicaSet(rep, obj, dest, ringv, exp.State, exp.Type)
	}
	obsClusterMoves.Inc()
	obsMigrations.Inc()
	return true, nil
}

// recomputeReplicaSet re-derives an object's follower set after its leader
// moved: followers are the ring's Owners walk minus the new leader. Added
// followers are seeded from the migration's exported baseline through
// their delivery queues; removed ones (including the new leader, which may
// have been a follower) unfollow directly — control-plane, like the
// placement update itself. The route version advances so snapshot reads
// that raced the change refuse and retry.
func (c *Cluster) recomputeReplicaSet(rep *replicator, obj histories.ObjectID, leader SiteID, ringv uint64, base spec.State, typ adts.Type) {
	c.mu.Lock()
	followers := replicaFollowers(c.ring, obj, rep.factor, leader)
	c.mu.Unlock()
	rep.mu.Lock()
	route := rep.routes[obj]
	if route == nil {
		route = rep.newRoute(obj, typ)
		rep.routes[obj] = route
	}
	old := route.followers
	route.followers, route.v = followers, ringv // a fresh slice: readers may hold the old one
	var added, removed []SiteID
	for _, f := range followers {
		if !slices.Contains(old, f) {
			added = append(added, f)
		}
	}
	for _, f := range old {
		if !slices.Contains(followers, f) {
			removed = append(removed, f)
		}
	}
	rep.seedLocked(route, added, base)
	rep.mu.Unlock()
	for _, f := range removed {
		if s, err := c.net.Site(f); err == nil {
			s.unfollow(obj)
		}
	}
	// The new leader hosts the object now; a leftover follow from its past
	// life in the set would shadow the authoritative copy.
	if s, err := c.net.Site(leader); err == nil {
		s.unfollow(obj)
	}
}

// abortMigration durably decides abort at the pool (explicit aborts let
// termination queries distinguish "decided abort" from "never heard of
// it") and broadcasts it to both halves.
func (c *Cluster) abortMigration(txn *cc.TxnInfo, peers ...*migPeer) {
	_ = c.pool.Decide(txn.ID, false)
	for _, p := range peers {
		p.abort(txn)
	}
	obsMigrationAborts.Inc()
}

// Reconcile re-derives the placement map from the sites themselves: every
// tracked object is looked up at every registered site, an object hosted
// by exactly one site is adopted at it, and an object hosted by zero or
// more than one site is a conservation violation. Use after crash windows
// or orphaned migrations, once the sites are back up; an unreachable site
// fails the pass retryably.
func (c *Cluster) Reconcile(origin SiteID) error {
	objs := c.Objects()
	sites := c.net.Sites()
	maxV := uint64(0)
	adopted := make(map[histories.ObjectID]SiteID, len(objs))
	for _, obj := range objs {
		var homes []SiteID
		for _, s := range sites {
			hosted, hv, err := c.net.QueryHosting(origin, s.ID(), obj)
			if err != nil {
				return fmt.Errorf("dist: reconcile %s at %s: %w", obj, s.ID(), err)
			}
			if hosted {
				homes = append(homes, s.ID())
				if hv > maxV {
					maxV = hv
				}
			}
		}
		if len(homes) != 1 {
			return fmt.Errorf("dist: reconcile: object %s hosted by %d sites %v", obj, len(homes), homes)
		}
		adopted[obj] = homes[0]
	}
	c.mu.Lock()
	for obj, site := range adopted {
		c.placement[obj] = site
	}
	if maxV > c.placeV {
		c.placeV = maxV
	}
	c.mu.Unlock()
	return nil
}

// Resource returns a placement-routed cc.Resource proxy for obj whose
// messages originate at origin ("" for an external client).
func (c *Cluster) Resource(obj histories.ObjectID, origin SiteID) *ClusterResource {
	return &ClusterResource{
		c:      c,
		obj:    obj,
		origin: origin,
		pins:   make(map[histories.ActivityID]*clusterPin),
	}
}

// ClusterResource is a placement-routed proxy: each transaction pins the
// object's home (and the placement version the route was computed from) at
// its first contact and keeps talking to that home for its whole lifetime.
// If a migration commits in between, the site refuses the stale route with
// ErrMoved and the transaction aborts retryably — the retry is a fresh
// transaction that re-routes from fresh placement. The per-transaction
// pinned site is what ParticipantSiteFor reports to the runtime, so logged
// yes-votes name the site that actually voted.
type ClusterResource struct {
	c      *Cluster
	obj    histories.ObjectID
	origin SiteID

	mu   sync.Mutex
	pins map[histories.ActivityID]*clusterPin
	free freeList[clusterPin] // pins of finished transactions, reset for reuse
}

// clusterPin is one transaction's pinned route and its leg there — the
// same route and leg a RemoteResource runs, so both proxies share one
// invoke, prepare, commit and abort path. calls mirrors the transaction's
// completed calls here, so the replicator can ship them to the object's
// followers at commit and judge their commutative class at prepare. A pin
// is recycled once its transaction's Commit or Abort has sent its last
// message (only the transaction's goroutine touches it, like a leg); the
// reset drops calls rather than reusing its array, which the replicator
// keeps.
type clusterPin struct {
	route
	leg
	calls []spec.Call
}

var _ cc.Resource = (*ClusterResource)(nil)

// ObjectID implements cc.Resource.
func (r *ClusterResource) ObjectID() histories.ObjectID { return r.obj }

// ParticipantSiteFor implements the runtime's per-transaction site report.
func (r *ClusterResource) ParticipantSiteFor(txn histories.ActivityID) string {
	r.mu.Lock()
	p := r.pins[txn]
	r.mu.Unlock()
	if p != nil {
		return string(p.site)
	}
	home, _ := r.c.HomeOf(r.obj)
	return string(home)
}

// pinFor returns the transaction's pin, routing from current placement on
// first contact.
func (r *ClusterResource) pinFor(txn histories.ActivityID) (*clusterPin, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.pins[txn]; p != nil {
		return p, nil
	}
	r.c.mu.Lock()
	home, ok := r.c.placement[r.obj]
	rv := r.c.placeV
	r.c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: cluster does not track object %s", r.obj)
	}
	p := r.free.take()
	p.route = route{net: r.c.net, origin: r.origin, site: home, obj: r.obj, rv: rv}
	r.pins[txn] = p
	return p, nil
}

// takePin removes and returns the transaction's pin (nil if it has none).
func (r *ClusterResource) takePin(txn histories.ActivityID) *clusterPin {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pins[txn]
	delete(r.pins, txn)
	return p
}

// recycle resets a pin taken by takePin, once its last message is sent,
// and keeps it for a later transaction.
func (r *ClusterResource) recycle(p *clusterPin) {
	r.mu.Lock()
	r.free.put(p)
	r.mu.Unlock()
}

// Invoke implements cc.Resource.
func (r *ClusterResource) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	p, err := r.pinFor(txn.ID)
	if err != nil {
		return value.Value{}, err
	}
	v, err := p.invoke(&p.leg, txn, inv)
	if err != nil && errors.Is(err, cc.ErrMoved) {
		obsClusterRefused.Inc()
	}
	if err == nil && r.c.replicator() != nil {
		p.calls = append(p.calls, spec.Call{Inv: inv, Result: v})
	}
	return v, err
}

// Prepare implements cc.Resource. Under replication it first registers the
// transaction's leg with the replicator and, when the calls are not a
// proven-commutative class, passes the sync barrier: the object's
// in-flight async deliveries drain before the leader's 2PC prepare, so the
// conflicting transaction's commit stamp follows everything it could
// conflict with.
func (r *ClusterResource) Prepare(txn *cc.TxnInfo) error {
	p, err := r.pinFor(txn.ID)
	if err != nil {
		return err
	}
	if rep := r.c.replicator(); rep != nil {
		if err := rep.prepare(txn.ID, r.obj, p.calls); err != nil {
			return err
		}
	}
	return p.prepare(&p.leg, txn)
}

// Commit implements cc.Resource. The decided transaction's legs ship to
// every follower before the leader installs the commit: stamping and
// enqueueing under one mutex keeps follower apply order equal to stamp
// order, and the durable decision (already at the coordinator) makes the
// ship safe however the leader-side delivery interleaves.
func (r *ClusterResource) Commit(txn *cc.TxnInfo, _ histories.Timestamp) {
	if rep := r.c.replicator(); rep != nil {
		rep.ship(txn.ID)
	}
	if p := r.takePin(txn.ID); p != nil {
		p.commit(&p.leg, txn)
		r.recycle(p)
	}
}

// Abort implements cc.Resource.
func (r *ClusterResource) Abort(txn *cc.TxnInfo) {
	if rep := r.c.replicator(); rep != nil {
		rep.forget(txn.ID)
	}
	if p := r.takePin(txn.ID); p != nil {
		p.abort(&p.leg, txn)
		r.recycle(p)
	}
}
