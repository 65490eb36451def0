package dist

import (
	"errors"
	"hash/fnv"

	"weihl83/internal/histories"
)

// coordIndex deterministically assigns a transaction to one member of a
// coordinator pool. Sites compute the same index from the same transaction
// id during cooperative termination, so an in-doubt participant always
// asks the member that made (or would have made) the decision.
func coordIndex(txn histories.ActivityID, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(txn))
	return int(h.Sum64() % uint64(n))
}

// Pool is a coordinator pool satisfying tx.Coordinator: each transaction
// is deterministically owned by one member (hash of its id), so decision
// traffic spreads across members and one member's crash only orphans the
// transactions it owns. Members stay individually crashable; the
// termination protocol queries the owning member by computing the same
// hash.
type Pool struct {
	members []*Coordinator
}

// NewPool builds a pool over the given coordinators (at least one).
func NewPool(members ...*Coordinator) (*Pool, error) {
	if len(members) == 0 {
		return nil, errors.New("dist: a coordinator pool needs at least one member")
	}
	return &Pool{members: append([]*Coordinator(nil), members...)}, nil
}

// CoordinatorFor returns the member owning txn.
func (p *Pool) CoordinatorFor(txn histories.ActivityID) *Coordinator {
	return p.members[coordIndex(txn, len(p.members))]
}

// IDs returns the members' network identifiers in pool order — the order
// coordIndex indexes, which SiteConfig.Coordinators must mirror.
func (p *Pool) IDs() []SiteID {
	out := make([]SiteID, len(p.members))
	for i, c := range p.members {
		out[i] = c.id
	}
	return out
}

// Members returns the pool's coordinators in pool order.
func (p *Pool) Members() []*Coordinator { return append([]*Coordinator(nil), p.members...) }

// Begin satisfies tx.Coordinator.
func (p *Pool) Begin(txn histories.ActivityID) { p.CoordinatorFor(txn).Begin(txn) }

// Decide satisfies tx.Coordinator.
func (p *Pool) Decide(txn histories.ActivityID, commit bool) error {
	return p.CoordinatorFor(txn).Decide(txn, commit)
}

// Checkpoint compacts every running member's decision log, returning the
// total estimated bytes reclaimed. Members that are down are skipped (their
// logs compact at their next checkpoint); the first error from a running
// member is returned alongside the bytes already reclaimed.
func (p *Pool) Checkpoint() (int64, error) {
	var total int64
	var firstErr error
	for _, c := range p.members {
		if !c.Up() {
			continue
		}
		n, err := c.Checkpoint()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
