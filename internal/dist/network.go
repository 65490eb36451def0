// Package dist is the distributed-system substrate: the paper's setting is
// "long-lived, on-line data ... particularly in a distributed system" (the
// Argus project, §6), so this package runs the protocols across simulated
// sites connected by a message network with configurable latency.
//
// A Site hosts protocol resources and a write-ahead log on its own stable
// storage; it can crash (losing all volatile state) and recover (rebuilding
// committed states from the log and resolving in-doubt transactions through
// the cooperative termination protocol). The Coordinator is itself
// crashable: it forces decisions to its own write-ahead log before the
// runtime broadcasts them. A RemoteResource is a cc.Resource proxy that
// ships invocations, prepares, commits and aborts to a site as messages, so
// the unchanged transaction runtime (internal/tx) drives distributed
// two-phase commit.
//
// The network is unreliable under fault injection: messages can be dropped,
// duplicated, delayed, sites can crash inside the commit protocol, and the
// network can partition into groups that cannot exchange messages until it
// heals (see internal/fault for the named fault points). Requests carry ids
// and sites keep a bounded volatile reply cache, giving at-most-once
// delivery semantics; the client side retransmits after a timeout, bounded
// by a retransmission budget, so drop + retransmit + dedup composes to
// exactly-once until a crash wipes the cache — at which point the
// per-transaction call-sequence check and the site epoch piggybacked on
// every message detect the lost state and abort the transaction rather
// than committing partial effects.
package dist

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
)

// Observability for the message layer. Attempts beyond the first are
// retransmissions; timeouts count calls whose whole budget ran out;
// partition counters track opened windows and deliveries they refused.
var (
	obsRPCCalls         = obs.Default.Counter("dist.rpc.calls")
	obsRPCAttempts      = obs.Default.Counter("dist.rpc.attempts")
	obsRPCRetransmits   = obs.Default.Counter("dist.rpc.retransmits")
	obsRPCTimeouts      = obs.Default.Counter("dist.rpc.timeouts")
	obsRPCExpect0       = obs.Default.Counter("dist.rpc.expect0")
	obsRPCHellos        = obs.Default.Counter("dist.rpc.hellos")
	obsPartitions       = obs.Default.Counter("dist.net.partitions")
	obsPartitionBlocked = obs.Default.Counter("dist.net.partition.blocked")
)

// SiteID names a site (or the coordinator) on the network.
type SiteID string

// ErrSiteDown reports a message sent to a crashed site. It wraps
// cc.ErrUnavailable: a site crash is a transient outage, so transactions
// that hit one abort retryably and tx.Run rides through the crash instead
// of surfacing a hard error.
var ErrSiteDown = fmt.Errorf("dist: site is down: %w", cc.ErrUnavailable)

// ErrRPCTimeout reports a request whose retransmission budget was exhausted
// without a reply. It wraps cc.ErrUnavailable (retryable).
var ErrRPCTimeout = fmt.Errorf("dist: request timed out after retransmissions: %w", cc.ErrUnavailable)

// ErrStaleTxn reports that a site lost a transaction's volatile state (a
// crash between the transaction's operations): the client's view of the
// call sequence no longer matches the site's, so the transaction must abort
// rather than commit partial effects. It wraps cc.ErrUnavailable
// (retryable: the retry starts a fresh transaction).
var ErrStaleTxn = fmt.Errorf("dist: transaction state lost at site: %w", cc.ErrUnavailable)

// ErrPartitioned reports a message refused by an open network partition:
// sender and receiver are in different groups until the partition heals.
// It wraps cc.ErrUnavailable (retryable).
var ErrPartitioned = fmt.Errorf("dist: network partitioned: %w", cc.ErrUnavailable)

// Network connects sites and the coordinator with randomized message
// latency and, under fault injection, message drops, duplications, extra
// delays and partitions. Requests time out and are retransmitted up to a
// bounded budget.
//
// Every message reads the network's configuration — injector, RPC
// parameters, partition groups, the site and coordinator tables — from an
// immutable snapshot published through an atomic pointer, so the message
// path takes no lock; the setters publish a fresh copy under mu. The
// latency bounds are fixed at construction, and mu guards the latency rng
// only when the bounds differ.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	minDelay time.Duration
	maxDelay time.Duration

	cfg    atomic.Pointer[netConfig]
	reqSeq atomic.Uint64
}

// netConfig is one published snapshot of the network's configuration. A
// snapshot is never written after it is published: a setter copies it,
// changes the copy (copying any map it changes) and publishes the copy.
type netConfig struct {
	inj         *fault.Injector
	rpcTimeout  time.Duration
	retransmits int
	groups      map[SiteID]int // open partition: site -> group; nil when healed
	sites       map[SiteID]*siteEntry
	coords      map[SiteID]*Coordinator
}

// siteEntry is a registered site plus the epoch senders last learned from
// it. The entry is shared by every snapshot, so the epoch table survives
// republishing.
type siteEntry struct {
	site *Site
	// epoch is the site's epoch as the last handshake reported it (0: none
	// known). Hello raises it; a refusal as orphaned clears it, but only
	// while it still holds the refused epoch. Every stateful sender — a
	// transaction's first contact, a migration peer, a replication queue —
	// pins from here and handshakes only when it is empty, so a site is
	// handshaken once per crash, not once per transaction.
	epoch atomic.Uint64
}

// NewNetwork returns a network with per-message latency drawn uniformly
// from [minDelay, maxDelay], a request timeout of max(1ms, 4·maxDelay) and
// a retransmission budget of 2 (see SetRPC), and no fault injection.
func NewNetwork(minDelay, maxDelay time.Duration, seed int64) *Network {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	timeout := 4 * maxDelay
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	n := &Network{
		rng:      rand.New(rand.NewSource(seed)),
		minDelay: minDelay,
		maxDelay: maxDelay,
	}
	n.cfg.Store(&netConfig{
		sites:       make(map[SiteID]*siteEntry),
		coords:      make(map[SiteID]*Coordinator),
		rpcTimeout:  timeout,
		retransmits: 2,
	})
	return n
}

// update publishes a copy of the current snapshot changed by f, under mu.
// f must copy any map it changes.
func (n *Network) update(f func(c *netConfig) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := *n.cfg.Load()
	if err := f(&c); err != nil {
		return err
	}
	n.cfg.Store(&c)
	return nil
}

// SetInjector attaches a fault injector to the network's message layer
// (nil detaches). The relevant points are fault.NetRequestDrop,
// fault.NetRequestDup, fault.NetReplyDrop and fault.NetDelay.
func (n *Network) SetInjector(in *fault.Injector) {
	_ = n.update(func(c *netConfig) error {
		c.inj = in
		return nil
	})
}

// SetRPC configures the per-attempt request timeout and the retransmission
// budget (extra attempts after the first). Non-positive arguments leave the
// respective setting unchanged; a budget of 0 disables retransmission — set
// retransmits to -1 for that.
func (n *Network) SetRPC(timeout time.Duration, retransmits int) {
	_ = n.update(func(c *netConfig) error {
		if timeout > 0 {
			c.rpcTimeout = timeout
		}
		c.retransmits = max(retransmits, 0)
		return nil
	})
}

// Partition splits the network: each listed group can only exchange
// messages within itself. Nodes not listed in any group form one implicit
// group of their own. The empty SiteID (an external client with no network
// presence) is never partitioned from anything.
func (n *Network) Partition(groups ...[]SiteID) {
	m := make(map[SiteID]int)
	for g, members := range groups {
		for _, id := range members {
			m[id] = g
		}
	}
	_ = n.update(func(c *netConfig) error {
		c.groups = m
		return nil
	})
	obsPartitions.Inc()
}

// Heal closes any open partition.
func (n *Network) Heal() {
	_ = n.update(func(c *netConfig) error {
		c.groups = nil
		return nil
	})
}

// Partitioned reports whether a partition is open.
func (n *Network) Partitioned() bool {
	return n.cfg.Load().groups != nil
}

// reachable reports whether a message from a can reach b under the
// snapshot's partition (trivially true when the network is healed).
func (c *netConfig) reachable(a, b SiteID) bool {
	if c.groups == nil || a == "" || b == "" {
		return true
	}
	ga, ok := c.groups[a]
	if !ok {
		ga = -1
	}
	gb, ok := c.groups[b]
	if !ok {
		gb = -1
	}
	return ga == gb
}

// register attaches a site.
func (n *Network) register(s *Site) error {
	return n.update(func(c *netConfig) error {
		if _, dup := c.sites[s.id]; dup {
			return fmt.Errorf("dist: duplicate site %s", s.id)
		}
		if _, dup := c.coords[s.id]; dup {
			return fmt.Errorf("dist: site %s collides with a coordinator", s.id)
		}
		c.sites = maps.Clone(c.sites)
		c.sites[s.id] = &siteEntry{site: s}
		return nil
	})
}

// registerCoordinator attaches a coordinator.
func (n *Network) registerCoordinator(co *Coordinator) error {
	return n.update(func(c *netConfig) error {
		if _, dup := c.coords[co.id]; dup {
			return fmt.Errorf("dist: duplicate coordinator %s", co.id)
		}
		if _, dup := c.sites[co.id]; dup {
			return fmt.Errorf("dist: coordinator %s collides with a site", co.id)
		}
		c.coords = maps.Clone(c.coords)
		c.coords[co.id] = co
		return nil
	})
}

// entry returns the registered site's entry.
func (n *Network) entry(id SiteID) (*siteEntry, error) {
	e, ok := n.cfg.Load().sites[id]
	if !ok {
		return nil, fmt.Errorf("dist: unknown site %s", id)
	}
	return e, nil
}

// Site returns the registered site.
func (n *Network) Site(id SiteID) (*Site, error) {
	e, err := n.entry(id)
	if err != nil {
		return nil, err
	}
	return e.site, nil
}

// Sites returns every registered site.
func (n *Network) Sites() []*Site {
	sites := n.cfg.Load().sites
	out := make([]*Site, 0, len(sites))
	for _, e := range sites {
		out = append(out, e.site)
	}
	return out
}

// node looks up an outcome-query answerer: the coordinator or a site.
func (n *Network) node(id SiteID) (outcomeNode, error) {
	c := n.cfg.Load()
	if co, ok := c.coords[id]; ok {
		return co, nil
	}
	if e, ok := c.sites[id]; ok {
		return e.site, nil
	}
	return nil, fmt.Errorf("dist: unknown node %s", id)
}

// delay sleeps a random message latency.
func (n *Network) delay() {
	d := n.minDelay
	if n.maxDelay > n.minDelay {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.maxDelay - n.minDelay)))
		n.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// exchange performs one unreliable round trip from from to the node named
// to, and is the only retransmission loop in the package: every message
// kind — stateful calls and the idempotent queries alike — rides it. One
// attempt crosses, in this order, the partition check, the request latency
// (plus fault.NetDelay), fault.NetRequestDrop, the callee's up-check, serve
// (the callee's side of the exchange), the reply latency and
// fault.NetReplyDrop; an attempt that fails at any of them waits out the
// timeout and is retransmitted until the budget is spent. serve may
// therefore run more than once: it must be idempotent or answer duplicates
// from the reply cache (see call). attempt reports which transmission the
// reply answered (0: the first). When the budget runs out the exchange
// fails with ErrSiteDown (refused throughout), ErrPartitioned (partitioned
// throughout) or ErrRPCTimeout — all retryable — and serve's reply is
// discarded.
func exchange[R any](n *Network, from, to SiteID, node interface{ Up() bool }, serve func() R) (reply R, attempt int, err error) {
	c := n.cfg.Load()
	inj := c.inj
	obsRPCCalls.Inc()
	var lastErr error
	for attempt = 0; attempt <= c.retransmits; attempt++ {
		obsRPCAttempts.Inc()
		if attempt > 0 {
			obsRPCRetransmits.Inc()
		}
		switch {
		case !n.cfg.Load().reachable(from, to):
			obsPartitionBlocked.Inc()
			lastErr = fmt.Errorf("%w: %s cannot reach %s", ErrPartitioned, from, to)
		case n.requestLost(inj):
			lastErr = fmt.Errorf("dist: request to %s lost", to)
		case !node.Up():
			lastErr = fmt.Errorf("%w: %s", ErrSiteDown, to)
		default:
			reply = serve()
			n.delay() // reply latency
			if !inj.Fires(fault.NetReplyDrop) {
				return reply, attempt, nil
			}
			lastErr = fmt.Errorf("dist: reply from %s lost", to)
		}
		time.Sleep(c.rpcTimeout)
	}
	obsRPCTimeouts.Inc()
	var zero R
	if errors.Is(lastErr, ErrSiteDown) || errors.Is(lastErr, ErrPartitioned) {
		return zero, attempt, lastErr
	}
	return zero, attempt, fmt.Errorf("%w (%v)", ErrRPCTimeout, lastErr)
}

// requestLost carries a request across the network — the message latency
// plus any fault.NetDelay — and reports whether fault.NetRequestDrop lost it
// on the way.
func (n *Network) requestLost(inj *fault.Injector) bool {
	n.delay()
	if d := inj.Delay(fault.NetDelay); d > 0 {
		time.Sleep(d)
	}
	return inj.Fires(fault.NetRequestDrop)
}

// call is the stateful exchange: it delivers a request to a site at most
// once and returns the handler's reply. The request carries an id and the
// site caches its reply, so a retransmission after a lost reply — or the
// duplicate fault.NetRequestDup injects — is answered from the cache
// instead of re-executing the handler. expect is the site epoch the sender
// pinned; a mismatch means the site crashed underneath it, and the
// delivery is refused with ErrOrphaned.
func call[Req any, Resp any](n *Network, from SiteID, site SiteID, expect uint64, txn histories.ActivityID, req Req, handle func(s *Site, req Req) (Resp, error)) (Resp, error) {
	resp, _, err := callAt(n, from, site, expect, txn, req, handle)
	return resp, err
}

// callAt is call reporting which transmission the reply answered (see
// exchange). A refusal as orphaned also clears expect from the network's
// epoch table, so the next sender to pin the site handshakes afresh.
func callAt[Req any, Resp any](n *Network, from SiteID, site SiteID, expect uint64, txn histories.ActivityID, req Req, handle func(s *Site, req Req) (Resp, error)) (Resp, int, error) {
	e, err := n.entry(site)
	if err != nil {
		var zero Resp
		return zero, 0, err
	}
	if expect == 0 {
		// Regression lock for the exactly-once first-contact hole: the
		// epoch handshake must pin an epoch before any stateful message,
		// so a zero expect here means an unchecked retransmission window
		// is open. Tests assert this counter stays zero.
		obsRPCExpect0.Inc()
	}
	type reply struct {
		resp Resp
		err  error
	}
	s := e.site
	inj := n.cfg.Load().inj
	reqID := n.reqSeq.Add(1)
	r, attempt, err := exchange(n, from, site, s, func() (r reply) {
		r.resp, r.err = deliver(s, reqID, expect, txn, req, handle)
		if inj.Fires(fault.NetRequestDup) {
			// Deliver the duplicate; its reply is discarded. The reply
			// cache makes this a no-op at the site.
			_, _ = deliver(s, reqID, expect, txn, req, handle)
		}
		return r
	})
	if err == nil {
		if err = r.err; errors.Is(err, ErrOrphaned) {
			e.epoch.CompareAndSwap(expect, 0)
		}
	}
	return r.resp, attempt, err
}

// deliver executes one delivery of a request at a site, answering
// duplicates from the site's volatile reply cache so redelivery never
// re-executes the handler, and refusing epoch-mismatched (orphaned)
// requests before they touch any state. The cache is same-epoch by
// construction — a crash wipes it — so a cached reply needs no epoch
// check.
func deliver[Req any, Resp any](s *Site, reqID uint64, expect uint64, txn histories.ActivityID, req Req, handle func(s *Site, req Req) (Resp, error)) (Resp, error) {
	if v, err, done := s.admit(reqID, expect); done {
		resp, _ := v.(Resp)
		return resp, err
	}
	resp, err := handle(s, req)
	s.cacheReply(reqID, txn, resp, err)
	return resp, err
}

// The query exchanges below are idempotent — they read state, or write it
// idempotently — so they carry no request id and no reply cache, and never
// draw fault.NetRequestDup; they ride the same exchange, with the same
// faults and retransmission budget, as every stateful call.

// Hello fetches a site's current epoch on behalf of from and records it in
// the network's epoch table — the handshake a sender performs before its
// first stateful message to a site whose epoch it does not know, so that
// no request ever carries expect=0. A retransmitted Hello that straddles a
// crash is harmless: it pins the post-crash epoch and no operation has
// executed yet.
func (n *Network) Hello(from, site SiteID) (uint64, error) {
	e, err := n.entry(site)
	if err != nil {
		return 0, err
	}
	obsRPCHellos.Inc()
	epoch, _, err := exchange(n, from, site, e.site, e.site.Epoch)
	if err != nil {
		return 0, err
	}
	for {
		// Epochs only grow: a slow reply never lowers what a later one
		// taught the table.
		cur := e.epoch.Load()
		if epoch <= cur || e.epoch.CompareAndSwap(cur, epoch) {
			return epoch, nil
		}
	}
}

// epochFor returns the epoch the network last learned from site, and
// handshakes (Hello) only when it knows none: once per site per crash.
func (n *Network) epochFor(from, site SiteID) (uint64, error) {
	e, err := n.entry(site)
	if err != nil {
		return 0, err
	}
	if epoch := e.epoch.Load(); epoch != 0 {
		return epoch, nil
	}
	return n.Hello(from, site)
}

// QueryHosting asks a site whether it currently hosts obj (and at which
// placement version it became home) on behalf of from — the message leg of
// placement reconciliation.
func (n *Network) QueryHosting(from, to SiteID, obj histories.ObjectID) (bool, uint64, error) {
	s, err := n.Site(to)
	if err != nil {
		return false, 0, err
	}
	type reply struct {
		hosted bool
		ringv  uint64
	}
	r, _, err := exchange(n, from, to, s, func() (r reply) {
		r.hosted, r.ringv = s.hostsObject(obj)
		return r
	})
	return r.hosted, r.ringv, err
}

// QueryOutcome asks node to about txn's outcome on behalf of from — the
// message leg of the cooperative termination protocol. An exhausted budget
// reports the node unreachable.
func (n *Network) QueryOutcome(from, to SiteID, txn histories.ActivityID) (Outcome, error) {
	node, err := n.node(to)
	if err != nil {
		return OutcomeUnknown, err
	}
	out, _, err := exchange(n, from, to, node, func() Outcome { return node.queryOutcome(txn) })
	return out, err
}
