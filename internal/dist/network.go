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
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	minDelay time.Duration
	maxDelay time.Duration
	sites    map[SiteID]*Site
	coords   map[SiteID]*Coordinator
	groups   map[SiteID]int // open partition: site -> group; nil when healed

	inj         *fault.Injector
	rpcTimeout  time.Duration
	retransmits int

	reqSeq atomic.Uint64
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
	return &Network{
		rng:         rand.New(rand.NewSource(seed)),
		minDelay:    minDelay,
		maxDelay:    maxDelay,
		sites:       make(map[SiteID]*Site),
		coords:      make(map[SiteID]*Coordinator),
		rpcTimeout:  timeout,
		retransmits: 2,
	}
}

// SetInjector attaches a fault injector to the network's message layer
// (nil detaches). The relevant points are fault.NetRequestDrop,
// fault.NetRequestDup, fault.NetReplyDrop and fault.NetDelay.
func (n *Network) SetInjector(in *fault.Injector) {
	n.mu.Lock()
	n.inj = in
	n.mu.Unlock()
}

// SetRPC configures the per-attempt request timeout and the retransmission
// budget (extra attempts after the first). Non-positive arguments leave the
// respective setting unchanged; a budget of 0 disables retransmission — set
// retransmits to -1 for that.
func (n *Network) SetRPC(timeout time.Duration, retransmits int) {
	n.mu.Lock()
	if timeout > 0 {
		n.rpcTimeout = timeout
	}
	if retransmits >= 0 {
		n.retransmits = retransmits
	} else {
		n.retransmits = 0
	}
	n.mu.Unlock()
}

// Partition splits the network: each listed group can only exchange
// messages within itself. Nodes not listed in any group form one implicit
// group of their own. The empty SiteID (an external client with no network
// presence) is never partitioned from anything.
func (n *Network) Partition(groups ...[]SiteID) {
	n.mu.Lock()
	n.groups = make(map[SiteID]int)
	for g, members := range groups {
		for _, id := range members {
			n.groups[id] = g
		}
	}
	n.mu.Unlock()
	obsPartitions.Inc()
}

// Heal closes any open partition.
func (n *Network) Heal() {
	n.mu.Lock()
	n.groups = nil
	n.mu.Unlock()
}

// Partitioned reports whether a partition is open.
func (n *Network) Partitioned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.groups != nil
}

// reachable reports whether a message from a can reach b under the current
// partition (trivially true when the network is healed).
func (n *Network) reachable(a, b SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.groups == nil {
		return true
	}
	if a == "" || b == "" {
		return true
	}
	ga, ok := n.groups[a]
	if !ok {
		ga = -1
	}
	gb, ok := n.groups[b]
	if !ok {
		gb = -1
	}
	return ga == gb
}

func (n *Network) injector() *fault.Injector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inj
}

func (n *Network) rpcParams() (time.Duration, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rpcTimeout, n.retransmits
}

// register attaches a site.
func (n *Network) register(s *Site) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.sites[s.id]; dup {
		return fmt.Errorf("dist: duplicate site %s", s.id)
	}
	if _, dup := n.coords[s.id]; dup {
		return fmt.Errorf("dist: site %s collides with a coordinator", s.id)
	}
	n.sites[s.id] = s
	return nil
}

// registerCoordinator attaches a coordinator.
func (n *Network) registerCoordinator(c *Coordinator) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.coords[c.id]; dup {
		return fmt.Errorf("dist: duplicate coordinator %s", c.id)
	}
	if _, dup := n.sites[c.id]; dup {
		return fmt.Errorf("dist: coordinator %s collides with a site", c.id)
	}
	n.coords[c.id] = c
	return nil
}

// Site returns the registered site.
func (n *Network) Site(id SiteID) (*Site, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.sites[id]
	if !ok {
		return nil, fmt.Errorf("dist: unknown site %s", id)
	}
	return s, nil
}

// Sites returns every registered site.
func (n *Network) Sites() []*Site {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Site, 0, len(n.sites))
	for _, s := range n.sites {
		out = append(out, s)
	}
	return out
}

// node looks up an outcome-query answerer: the coordinator or a site.
func (n *Network) node(id SiteID) (outcomeNode, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.coords[id]; ok {
		return c, nil
	}
	if s, ok := n.sites[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("dist: unknown node %s", id)
}

// delay sleeps a random message latency.
func (n *Network) delay() {
	n.mu.Lock()
	d := n.minDelay
	if n.maxDelay > n.minDelay {
		d += time.Duration(n.rng.Int63n(int64(n.maxDelay - n.minDelay)))
	}
	n.mu.Unlock()
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
// from the reply cache (see call). When the budget runs out the exchange
// fails with ErrSiteDown (refused throughout), ErrPartitioned (partitioned
// throughout) or ErrRPCTimeout — all retryable — and serve's reply is
// discarded.
func exchange[R any](n *Network, from, to SiteID, node interface{ Up() bool }, serve func() R) (R, error) {
	inj := n.injector()
	timeout, retransmits := n.rpcParams()
	obsRPCCalls.Inc()
	var lastErr error
	for attempt := 0; attempt <= retransmits; attempt++ {
		obsRPCAttempts.Inc()
		if attempt > 0 {
			obsRPCRetransmits.Inc()
		}
		switch {
		case !n.reachable(from, to):
			obsPartitionBlocked.Inc()
			lastErr = fmt.Errorf("%w: %s cannot reach %s", ErrPartitioned, from, to)
		case n.requestLost(inj):
			lastErr = fmt.Errorf("dist: request to %s lost", to)
		case !node.Up():
			lastErr = fmt.Errorf("%w: %s", ErrSiteDown, to)
		default:
			reply := serve()
			n.delay() // reply latency
			if !inj.Fires(fault.NetReplyDrop) {
				return reply, nil
			}
			lastErr = fmt.Errorf("dist: reply from %s lost", to)
		}
		time.Sleep(timeout)
	}
	obsRPCTimeouts.Inc()
	var zero R
	if errors.Is(lastErr, ErrSiteDown) || errors.Is(lastErr, ErrPartitioned) {
		return zero, lastErr
	}
	return zero, fmt.Errorf("%w (%v)", ErrRPCTimeout, lastErr)
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
// instead of re-executing the handler. expect is the site epoch the client
// pinned for this transaction; a mismatch means the site crashed
// underneath it, and the delivery is refused with ErrOrphaned.
func call[Req any, Resp any](n *Network, from SiteID, site SiteID, expect uint64, txn histories.ActivityID, req Req, handle func(s *Site, req Req) (Resp, error)) (Resp, error) {
	s, err := n.Site(site)
	if err != nil {
		var zero Resp
		return zero, err
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
	inj := n.injector()
	reqID := n.reqSeq.Add(1)
	r, err := exchange(n, from, site, s, func() (r reply) {
		r.resp, r.err = deliver(s, reqID, expect, txn, req, handle)
		if inj.Fires(fault.NetRequestDup) {
			// Deliver the duplicate; its reply is discarded. The reply
			// cache makes this a no-op at the site.
			_, _ = deliver(s, reqID, expect, txn, req, handle)
		}
		return r
	})
	if err == nil {
		err = r.err
	}
	return r.resp, err
}

// deliver executes one delivery of a request at a site, answering
// duplicates from the site's volatile reply cache so redelivery never
// re-executes the handler, and refusing epoch-mismatched (orphaned)
// requests before they touch any state. The cache is same-epoch by
// construction — a crash wipes it — so a cached reply needs no epoch
// check.
func deliver[Req any, Resp any](s *Site, reqID uint64, expect uint64, txn histories.ActivityID, req Req, handle func(s *Site, req Req) (Resp, error)) (Resp, error) {
	if v, err, ok := s.cachedReply(reqID); ok {
		resp, _ := v.(Resp)
		return resp, err
	}
	if err := s.checkEpoch(expect); err != nil {
		var zero Resp
		return zero, err
	}
	resp, err := handle(s, req)
	s.cacheReply(reqID, txn, resp, err)
	return resp, err
}

// The query exchanges below are idempotent — they read state, or write it
// idempotently — so they carry no request id and no reply cache, and never
// draw fault.NetRequestDup; they ride the same exchange, with the same
// faults and retransmission budget, as every stateful call.

// Hello fetches a site's current epoch on behalf of from — the handshake a
// proxy performs before a transaction's first stateful message to the site,
// so that no request ever carries expect=0. A retransmitted Hello that
// straddles a crash is harmless: it pins the post-crash epoch and no
// operation has executed yet.
func (n *Network) Hello(from, site SiteID) (uint64, error) {
	s, err := n.Site(site)
	if err != nil {
		return 0, err
	}
	return exchange(n, from, site, s, s.Epoch)
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
	r, err := exchange(n, from, to, s, func() (r reply) {
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
	return exchange(n, from, to, node, func() Outcome { return node.queryOutcome(txn) })
}
