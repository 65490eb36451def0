package dist

import (
	"errors"
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// RemoteResource is a cc.Resource proxy for an object hosted at another
// site: every operation becomes a message round trip. It lets the
// unchanged transaction runtime (internal/tx) execute distributed
// transactions with two-phase commit across sites.
//
// The proxy is a route (where the object lives and how to reach it) plus
// one leg per transaction in flight (see leg): the count of the
// transaction's completed calls and the site epoch it pinned. The site
// cross-checks the count against its own intentions (see
// Site.handleInvoke), and refuses a message whose epoch it has moved past
// (ErrOrphaned) before it touches any state, so a crash that wiped the
// transaction's volatile state in between aborts it retryably instead of
// committing partial effects.
type RemoteResource struct {
	route

	mu   sync.Mutex
	legs map[histories.ActivityID]*leg
}

var _ cc.Resource = (*RemoteResource)(nil)

// route is where a proxy's messages go: the object, the site hosting it,
// where the messages originate (for partitions), and the placement version
// the route was taken from (0: unrouted).
type route struct {
	net    *Network
	origin SiteID
	site   SiteID
	obj    histories.ObjectID
	rv     uint64
}

// leg is one transaction's state at one route: the calls it has completed
// there, the site epoch it pinned, and whether it has sent anything yet.
// Only the transaction's own goroutine touches a leg.
//
// The epoch is pinned before the leg's first stateful message, from the
// network's epoch table (Network.epochFor), which handshakes only when it
// knows no epoch for the site — once per crash, not once per transaction.
// Every message of the leg carries that epoch, so a crash at any point
// after the pin makes the epochs disagree. Pinning before the first
// stateful message (rather than from its reply) closes the exactly-once
// hole where a retransmission of the first message carried expect=0 and
// could re-execute across a crash that had wiped the reply cache.
//
// A table epoch may predate a crash the table has not heard of. The first
// transmission of the leg's first message is then refused as orphaned,
// and that refusal proves nothing of the leg executed at the site in any
// epoch: no earlier message exists, and this one was refused before it
// touched state. So the leg pins afresh and resends once (see send). A
// refusal of a retransmission proves nothing — an earlier transmission
// may have executed before the crash — and surfaces as ErrOrphaned.
type leg struct {
	seq   int
	epoch uint64
	sent  bool
}

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
	return newRemoteResourceRouted(net, origin, site, obj, 0)
}

// newRemoteResourceRouted is NewRemoteResourceAt for placement-routed
// proxies: every invoke and prepare carries rv, the placement version the
// route was computed from, so a site whose hosting of the object postdates
// that version refuses the stale route with ErrMoved.
func newRemoteResourceRouted(net *Network, origin, site SiteID, obj histories.ObjectID, rv uint64) *RemoteResource {
	return &RemoteResource{
		route: route{net: net, origin: origin, site: site, obj: obj, rv: rv},
		legs:  make(map[histories.ActivityID]*leg),
	}
}

// ObjectID implements cc.Resource.
func (r *RemoteResource) ObjectID() histories.ObjectID { return r.obj }

// ParticipantSiteFor names the site hosting this resource, the same for
// every transaction; the runtime collects these into
// cc.TxnInfo.Participants before prepare, so every yes-vote is logged with
// the peer set the termination protocol polls.
func (r *RemoteResource) ParticipantSiteFor(histories.ActivityID) string { return string(r.site) }

// legOf returns txn's leg, creating it on first contact.
func (r *RemoteResource) legOf(txn histories.ActivityID) *leg {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.legs[txn]
	if l == nil {
		l = &leg{}
		r.legs[txn] = l
	}
	return l
}

// takeLeg removes and returns txn's leg (a zero leg if it has none).
func (r *RemoteResource) takeLeg(txn histories.ActivityID) *leg {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.legs[txn]
	delete(r.legs, txn)
	if l == nil {
		l = &leg{}
	}
	return l
}

// ensureEpoch returns the site epoch pinned for txn, pinning it first if
// this is the transaction's first contact with the site (see route.pin).
func (r *RemoteResource) ensureEpoch(txn histories.ActivityID) (uint64, error) {
	return r.pin(r.legOf(txn))
}

// Invoke implements cc.Resource: a site crash or exhausted retransmission
// budget surfaces as a retryable outage (the transaction aborts and may run
// again once the site recovers).
func (r *RemoteResource) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	return r.invoke(r.legOf(txn.ID), txn, inv)
}

// Prepare implements cc.Resource: the participant's vote.
func (r *RemoteResource) Prepare(txn *cc.TxnInfo) error {
	return r.prepare(r.legOf(txn.ID), txn)
}

// Commit implements cc.Resource.
func (r *RemoteResource) Commit(txn *cc.TxnInfo, _ histories.Timestamp) {
	r.commit(r.takeLeg(txn.ID), txn)
}

// Abort implements cc.Resource.
func (r *RemoteResource) Abort(txn *cc.TxnInfo) {
	r.abort(r.takeLeg(txn.ID), txn)
}

// pin returns the leg's epoch, taking it from the network's epoch table
// (which handshakes only when it knows none) if the leg has not pinned one.
// The handshake executes no operation, so retransmitting it across a crash
// is safe — it simply pins the newest epoch. A handshake failure is a
// retryable outage.
func (rt *route) pin(l *leg) (uint64, error) {
	if l.epoch != 0 {
		return l.epoch, nil
	}
	epoch, err := rt.net.epochFor(rt.origin, rt.site)
	if err != nil {
		return 0, err
	}
	l.epoch = epoch
	return epoch, nil
}

// send delivers one stateful message of leg l over the route (see call),
// pinning the leg's epoch first. It applies the leg's one resend rule: a
// refusal as orphaned of the first transmission of the leg's first message
// re-pins and resends once under a fresh request id.
func send[Req any, Resp any](rt *route, l *leg, req Req, handle func(s *Site, d delivery, req Req) (Resp, error)) (Resp, error) {
	expect, err := rt.pin(l)
	if err != nil {
		var zero Resp
		return zero, err
	}
	first := !l.sent
	l.sent = true
	resp, attempt, err := callAt(rt.net, rt.origin, rt.site, expect, req, handle)
	if first && attempt == 0 && errors.Is(err, ErrOrphaned) {
		l.epoch = 0
		if expect, err = rt.pin(l); err != nil {
			return resp, err
		}
		resp, err = call(rt.net, rt.origin, rt.site, expect, req, handle)
	}
	return resp, err
}

// invoke ships one invocation.
func (rt *route) invoke(l *leg, txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	n := l.seq
	v, err := send(rt, l, inv, func(s *Site, d delivery, inv spec.Invocation) (value.Value, error) {
		return s.handleInvoke(d, rt.obj, txn, inv, n, rt.rv)
	})
	if err == nil {
		l.seq++
	}
	return v, err
}

// prepare asks for the participant's vote. A failure (site down, doomed,
// stale or orphaned transaction, failed log write) vetoes the commit.
func (rt *route) prepare(l *leg, txn *cc.TxnInfo) error {
	n := l.seq
	_, err := send(rt, l, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handlePrepare(d, rt.obj, txn, n, rt.rv)
	})
	return err
}

// commit delivers the commit decision. Prepare pinned the epoch (commit
// only follows a successful prepare). Delivery to a crashed participant is
// dropped: the coordinator's logged decision plus the participant's logged
// intentions redo the commit during recovery, which is the point of
// write-ahead logging in two-phase commit.
func (rt *route) commit(l *leg, txn *cc.TxnInfo) {
	_, _ = send(rt, l, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handleCommit(d, rt.obj, txn)
	})
}

// abort delivers the abort. A leg that never pinned an epoch (it aborted on
// a handshake failure or before any contact) pins one now, so even the
// abort carries a checked epoch. Delivery to an unreachable or crashed
// participant is dropped: recovery presumes abort for undecided
// transactions.
func (rt *route) abort(l *leg, txn *cc.TxnInfo) {
	_, _ = send(rt, l, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handleAbort(d, rt.obj, txn)
	})
}
