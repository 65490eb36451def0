package conflict

import (
	"weihl83/internal/adts"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Static-cascade observability. The counters are shared by every Static
// instance: the interesting signal is how often each tier decides across
// the process, mirroring the engine's per-stage counters.
var (
	obsStaticNameCommutes = obs.Default.Counter("cc.conflict.static.name.commutes")
	obsStaticArgsCommutes = obs.Default.Counter("cc.conflict.static.args.commutes")
	obsStaticConflicts    = obs.Default.Counter("cc.conflict.static.conflicts")
)

// Static is the pairwise, state-independent face of the cascade: the two
// table stages applied to a single pair of invocations. Layers that reason
// about invocation pairs rather than pending blocks — the scheduler model,
// the multi-version protocol's validation fast path — consume this instead
// of a raw conflict predicate, so the tiering (and its metrics) is uniform
// across the stack.
//
// The tiering relies on the tables' refinement contract: the name-only
// table over-approximates the argument-aware one, so a name-level
// "commutes" answer is final and the argument predicate is only consulted
// when names alone cannot decide.
type Static struct {
	nameOnly func(p, q spec.Invocation) bool
	args     func(p, q spec.Invocation) bool
}

// NewStatic builds a static cascade from a name-only table and an
// argument-aware predicate; either may be nil. With both nil every pair
// conflicts (nothing is known to commute).
func NewStatic(nameOnly, args func(p, q spec.Invocation) bool) *Static {
	return &Static{nameOnly: nameOnly, args: args}
}

// StaticForType builds the static cascade from a type's conflict tables.
func StaticForType(t adts.Type) *Static {
	return NewStatic(t.ConflictsNameOnly, t.Conflicts)
}

// Conflicts reports whether p and q may fail to commute in some state —
// the same contract as a type's Conflicts predicate, answered through the
// cascade.
func (s *Static) Conflicts(p, q spec.Invocation) bool {
	if s.nameOnly != nil && !s.nameOnly(p, q) {
		obsStaticNameCommutes.Inc()
		return false
	}
	if s.args != nil && !s.args(p, q) {
		obsStaticArgsCommutes.Inc()
		return false
	}
	obsStaticConflicts.Inc()
	return true
}

// CommutesWithAll reports whether inv commutes with every call in calls —
// the block-level helper the multi-version fast path uses.
func (s *Static) CommutesWithAll(inv spec.Invocation, calls []spec.Call) bool {
	for _, c := range calls {
		if s.Conflicts(inv, c.Inv) {
			return false
		}
	}
	return true
}

// CommutativeClass reports whether invs form a proven-commutative class:
// every ordered pair — including each invocation against itself — commutes
// under the static tables. A class that passes can replicate its members
// asynchronously with no ordering coordination at all: any interleaving of
// the class at any replica yields the same state and the same recorded
// results, so delivery order does not matter. Self-pairs are included
// because replication concurrency is unbounded — two deliveries of the
// same operation shape may race at a replica.
func (s *Static) CommutativeClass(invs ...spec.Invocation) bool {
	for i, p := range invs {
		for _, q := range invs[i:] {
			if s.Conflicts(p, q) {
				return false
			}
		}
	}
	return true
}
