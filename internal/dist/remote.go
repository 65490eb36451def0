package dist

import (
	"sync"
	"time"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability: per-phase round-trip latency of the remote protocol, as
// seen by the client (includes retransmission waits).
var (
	obsInvokeLat  = obs.Default.Histogram("dist.2pc.invoke_ns")
	obsPrepareLat = obs.Default.Histogram("dist.2pc.prepare_ns")
	obsCommitLat  = obs.Default.Histogram("dist.2pc.commit_ns")
	obsAbortLat   = obs.Default.Histogram("dist.2pc.abort_ns")
)

// RemoteResource is a cc.Resource proxy for an object hosted at another
// site: every operation becomes a message round trip. It lets the
// unchanged transaction runtime (internal/tx) execute distributed
// transactions with two-phase commit across sites.
//
// The proxy counts each transaction's completed calls and sends the count
// with every invoke and with the prepare request. The site cross-checks it
// against its own intentions (see Site.handleInvoke): if a crash wiped the
// transaction's volatile state in between, the counts disagree and the
// transaction aborts retryably instead of committing partial effects. The
// proxy also pins the site's epoch per transaction — fetched by an
// explicit handshake (Network.Hello) before the transaction's first
// message to the site — and piggybacks it on every message, including the
// first: a site crash at any point after the handshake makes the epochs
// disagree and the site refuses the orphaned message (ErrOrphaned) before
// it touches any state. Pinning before the first stateful message (rather
// than from its reply) closes the exactly-once hole where a
// retransmission of the first message carried expect=0 and could
// re-execute across a crash that had wiped the reply cache.
type RemoteResource struct {
	net    *Network
	origin SiteID // where the proxy's messages originate, for partitions
	site   SiteID
	obj    histories.ObjectID
	rv     uint64 // placement version the route was taken from; 0 = unrouted

	mu     sync.Mutex
	seq    map[histories.ActivityID]int
	epochs map[histories.ActivityID]uint64
}

var _ cc.Resource = (*RemoteResource)(nil)

// NewRemoteResource returns a proxy for obj at site whose messages
// originate outside the network ("" — an external client a partition
// never cuts off).
func NewRemoteResource(net *Network, site SiteID, obj histories.ObjectID) *RemoteResource {
	return NewRemoteResourceAt(net, "", site, obj)
}

// NewRemoteResourceAt returns a proxy for obj at site whose messages
// originate at origin, so an open partition separating origin from site
// refuses them.
func NewRemoteResourceAt(net *Network, origin, site SiteID, obj histories.ObjectID) *RemoteResource {
	return &RemoteResource{
		net:    net,
		origin: origin,
		site:   site,
		obj:    obj,
		seq:    make(map[histories.ActivityID]int),
		epochs: make(map[histories.ActivityID]uint64),
	}
}

// NewRemoteResourceRouted is NewRemoteResourceAt for placement-routed
// proxies: every invoke and prepare carries rv, the placement version the
// route was computed from, so a site whose hosting of the object postdates
// that version refuses the stale route with ErrMoved.
func NewRemoteResourceRouted(net *Network, origin, site SiteID, obj histories.ObjectID, rv uint64) *RemoteResource {
	r := NewRemoteResourceAt(net, origin, site, obj)
	r.rv = rv
	return r
}

// ObjectID implements cc.Resource.
func (r *RemoteResource) ObjectID() histories.ObjectID { return r.obj }

// ParticipantSite names the site hosting this resource; the runtime
// collects these into cc.TxnInfo.Participants before prepare, so every
// yes-vote is logged with the peer set the termination protocol polls.
func (r *RemoteResource) ParticipantSite() string { return string(r.site) }

func (r *RemoteResource) seqOf(txn histories.ActivityID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq[txn]
}

func (r *RemoteResource) bump(txn histories.ActivityID) {
	r.mu.Lock()
	r.seq[txn]++
	r.mu.Unlock()
}

func (r *RemoteResource) epochOf(txn histories.ActivityID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochs[txn]
}

// ensureEpoch returns the site epoch pinned for txn, performing the
// handshake (Network.Hello) if this is the transaction's first contact
// with the site. The handshake executes no operation, so retransmitting it
// across a crash is safe — it simply pins the newest epoch; any operation
// that then executes is refused as orphaned if the site crashes before a
// later message. A handshake failure is a retryable outage.
func (r *RemoteResource) ensureEpoch(txn histories.ActivityID) (uint64, error) {
	if e := r.epochOf(txn); e != 0 {
		return e, nil
	}
	epoch, err := r.net.Hello(r.origin, r.site)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	if prev, ok := r.epochs[txn]; ok {
		epoch = prev // a concurrent handshake won; keep its pin
	} else if epoch != 0 {
		r.epochs[txn] = epoch
	}
	r.mu.Unlock()
	return epoch, nil
}

func (r *RemoteResource) forget(txn histories.ActivityID) {
	r.mu.Lock()
	delete(r.seq, txn)
	delete(r.epochs, txn)
	r.mu.Unlock()
}

// Invoke implements cc.Resource: a site crash or exhausted retransmission
// budget surfaces as a retryable outage (the transaction aborts and may run
// again once the site recovers).
func (r *RemoteResource) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	n := r.seqOf(txn.ID)
	start := time.Now()
	expect, herr := r.ensureEpoch(txn.ID)
	if herr != nil {
		obsInvokeLat.Observe(int64(time.Since(start)))
		return value.Value{}, herr
	}
	v, err := call(r.net, r.origin, r.site, expect, txn.ID, inv, func(s *Site, inv spec.Invocation) (value.Value, error) {
		return s.handleInvoke(r.obj, txn, inv, n, r.rv)
	})
	obsInvokeLat.Observe(int64(time.Since(start)))
	if err == nil {
		r.bump(txn.ID)
	}
	return v, err
}

// Prepare implements cc.Resource: the participant's vote. A failure (site
// down, doomed, stale or orphaned transaction, failed log write) vetoes
// the commit.
func (r *RemoteResource) Prepare(txn *cc.TxnInfo) error {
	n := r.seqOf(txn.ID)
	type req struct{}
	start := time.Now()
	expect, herr := r.ensureEpoch(txn.ID)
	if herr != nil {
		obsPrepareLat.Observe(int64(time.Since(start)))
		return herr
	}
	_, err := call(r.net, r.origin, r.site, expect, txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handlePrepare(r.obj, txn, n, r.rv)
	})
	obsPrepareLat.Observe(int64(time.Since(start)))
	return err
}

// Commit implements cc.Resource. Delivery to a crashed participant is
// dropped: the coordinator's logged decision plus the participant's logged
// intentions redo the commit during recovery, which is the point of
// write-ahead logging in two-phase commit.
func (r *RemoteResource) Commit(txn *cc.TxnInfo, _ histories.Timestamp) {
	type req struct{}
	start := time.Now()
	// Prepare pinned the epoch (commit only follows a successful prepare),
	// so no handshake is needed here.
	_, _ = call(r.net, r.origin, r.site, r.epochOf(txn.ID), txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handleCommit(r.obj, txn)
	})
	obsCommitLat.Observe(int64(time.Since(start)))
	r.forget(txn.ID)
}

// Abort implements cc.Resource. Delivery to a crashed participant is
// dropped: recovery presumes abort for undecided transactions.
func (r *RemoteResource) Abort(txn *cc.TxnInfo) {
	type req struct{}
	start := time.Now()
	expect := r.epochOf(txn.ID)
	if expect == 0 {
		// The transaction never completed the handshake (it aborted on a
		// handshake failure or before any contact). Handshake now — the
		// exchange is idempotent — so even the abort message carries a
		// checked epoch; if the site is unreachable the abort is dropped
		// and recovery presumes abort.
		e, err := r.net.Hello(r.origin, r.site)
		if err != nil {
			obsAbortLat.Observe(int64(time.Since(start)))
			r.forget(txn.ID)
			return
		}
		expect = e
	}
	_, _ = call(r.net, r.origin, r.site, expect, txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handleAbort(r.obj, txn)
	})
	obsAbortLat.Observe(int64(time.Since(start)))
	r.forget(txn.ID)
}
