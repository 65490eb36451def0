// Package locking implements the dynamic-atomicity protocol family: a
// deferred-update (intentions-list) locking object with pluggable conflict
// guards, and a waits-for-graph deadlock detector.
//
// Conflict decisions are delegated to internal/conflict; the guards here
// are thin adapters that pin one granularity of the spectrum the paper
// discusses:
//
//   - RWGuard — classical read/write two-phase locking, the coarsest
//     baseline.
//   - TableGuard — type-specific commutativity locking in the style of
//     [Schwarz & Spector 82] / [Korth 81]: a static conflict predicate over
//     invocations (argument-aware or name-only).
//   - ExactGuard — state-based dynamic atomicity: an operation is granted
//     exactly when every arrangement (every order of every subset) of the
//     active transactions' intentions, with the new call appended to the
//     requester's, replays the recorded results. This is what lets two
//     withdrawals run concurrently when the balance covers both (§5.1).
//   - EscrowGuard — a constant-time specialisation of the same idea for
//     the bank-account type.
//
// The cascade engine (conflict.ForType) also satisfies Guard: it runs
// name table → argument table → per-block summary → memoised exact search,
// granting exactly what ExactGuard grants at a fraction of the cost. The
// object finds its InvalidateConflictCache and StateBased methods by type
// assertion, so a wrapper around it must forward both.
package locking

import (
	"weihl83/internal/conflict"
	"weihl83/internal/spec"
)

// Guard decides whether a new call may be granted. base is the committed
// state of the object, mine the requester's prior calls at the object (its
// intentions list), cand the candidate call (invocation plus the result it
// would return), and others the pending intentions of the other active
// transactions, one non-empty slice per transaction.
//
// Soundness contract: if Allowed returns true, then for every subset of the
// other transactions and every serialization order of that subset together
// with the requester (its intentions extended by cand), replaying from base
// must reproduce every recorded result. The object preserves this as an
// invariant, which makes every recorded history dynamic atomic.
//
// A false result with a nil error means the requester must wait (the
// normal conflict outcome). A non-nil error reports that the guard cannot
// decide at all — a misconfiguration such as a state-based guard over the
// wrong state type (conflict.ErrTypeMismatch) — and the invocation fails
// instead of waiting forever.
type Guard interface {
	Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error)
}

// RWGuard is classical two-phase locking: every operation is classified as
// a read or a write; a write conflicts with everything, a read conflicts
// with writes.
type RWGuard struct {
	// IsWrite classifies operation names.
	IsWrite func(op string) bool
}

var _ Guard = RWGuard{}

// Allowed implements Guard.
func (g RWGuard) Allowed(_ spec.State, _ []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	return conflict.RWAllowed(g.IsWrite, cand, others), nil
}

// TableGuard grants a call when it commutes with every pending call of
// every other active transaction according to a static conflict predicate.
type TableGuard struct {
	// Conflicts reports whether two invocations may fail to commute.
	Conflicts func(p, q spec.Invocation) bool
}

var _ Guard = TableGuard{}

// Allowed implements Guard.
func (g TableGuard) Allowed(_ spec.State, _ []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	return conflict.TableAllowed(g.Conflicts, cand, others), nil
}

// ExactGuard implements state-based dynamic atomicity by exhaustive
// arrangement checking (conflict.ExactSearch at its default bounds):
// starting from the committed base, every order of every subset of the
// active blocks (the requester's block has cand appended) must replay the
// recorded results. Past conflict.DefaultMaxBlocks blocks or
// conflict.DefaultMaxStates explored states the search denies
// conservatively (the requester waits, which is always safe).
//
// ExactGuard runs the search on every query. The cascade engine
// (conflict.ForType) reaches the same decisions through its memoised exact
// stage; prefer it on contended objects.
type ExactGuard struct{}

var _ Guard = ExactGuard{}

// Allowed implements Guard.
func (ExactGuard) Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	return conflict.ExactSearch(base, mine, cand, others, 0, 0), nil
}

// EscrowGuard is the constant-time state-based guard for the bank-account
// type (§5.1), a thin adapter over conflict.AccountSummary used
// authoritatively (denials are final, not escalated).
//
// Applied to an object whose state is not an account, Allowed returns
// conflict.ErrTypeMismatch (and bumps the cc.conflict.type_mismatch
// counter) instead of silently denying forever — the historical behaviour
// masqueraded as a permanent conflict and livelocked the requester in a
// lock wait.
type EscrowGuard struct{}

var _ Guard = EscrowGuard{}

// Allowed implements Guard.
func (g EscrowGuard) Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	v, err := conflict.AccountSummary{}.Decide(base, mine, cand, others)
	if err != nil {
		return false, err
	}
	return v == conflict.Commutes, nil
}
