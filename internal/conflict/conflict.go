// Package conflict is the single conflict engine every protocol layer
// consumes: locking guards, the scheduler model, the hybrid and
// multi-version protocols and the distributed sites all answer the same
// question — may this call run concurrently with that pending work? — and
// this package answers it once, from the type's serial specification and
// the object's current state, instead of each layer re-deriving its own
// commute check.
//
// ForType builds the engine, one fixed cascade, cheapest stage first (the
// cc.conflict.tier.<name>.* counters count each stage's decisions):
//
//  1. name-only conflict table — operation names alone;
//  2. argument-aware conflict table — names plus arguments;
//  3. the spec's per-block summary (accounts and integer sets) —
//     constant-time state-based tests over a summary of each transaction's
//     pending block (the generalisation of the escrow guard's blockFacts
//     beyond accounts);
//  4. memoised exact state-based search — every order of every subset of
//     the pending blocks is replayed from the committed base (the
//     ExactSearch behind locking.ExactGuard), behind a per-object decision
//     cache.
//
// A stage is skipped when the type lacks it. Stages 1–3 may only grant or
// escalate: a table conflict over-approximates (two withdrawals "conflict"
// even when the balance covers both), and a summary denial is conservative,
// so both fall through to the finer stages. Soundness is preserved stage by
// stage: a stage grants only when it has *proved* every arrangement replays
// the recorded results, and a denial (waiting) is always safe. The exact
// stage is the only one that denies, so the cascade as a whole grants
// exactly what the exhaustive search grants — it is just cheap when the
// static structure already decides, and O(1) when the memoisation cache
// hits. A new stage goes into Engine.Allowed between the summary and the
// exact search, under the same grant-or-escalate rule.
//
// The exact stage's cache is keyed on the full decision input — base-state
// key, the requester's block, the candidate call, and a fingerprint of the
// other transactions' pending blocks — so a hit can never be unsound, and
// it is invalidated on commit/abort (when the committed base moves or
// pending work drains) to stay small.
package conflict

import (
	"weihl83/internal/adts"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Verdict is a state-based decision procedure's three-valued answer.
type Verdict int

// Verdicts. Unknown is deliberately the zero value: a procedure that has
// nothing to say escalates.
const (
	// Unknown: the procedure cannot decide; in the cascade the question
	// escalates to the next (finer, more expensive) stage.
	Unknown Verdict = iota
	// Commutes: every arrangement of the pending blocks with the candidate
	// appended is proved to replay the recorded results; granting is sound.
	Commutes
	// Conflicts: the call must not be granted now (the requester waits).
	// Denial is always sound; a summary's denial may be conservative.
	Conflicts
)

// String returns the verdict's name.
func (v Verdict) String() string {
	switch v {
	case Commutes:
		return "commutes"
	case Conflicts:
		return "conflicts"
	default:
		return "unknown"
	}
}

// stageCounters are one stage's decision counters,
// cc.conflict.tier.<name>.{commutes,conflicts,escalations}.
type stageCounters struct{ commutes, conflicts, escalations *obs.Counter }

func newStageCounters(name string) *stageCounters {
	prefix := "cc.conflict.tier." + name + "."
	return &stageCounters{
		commutes:    obs.Default.Counter(prefix + "commutes"),
		conflicts:   obs.Default.Counter(prefix + "conflicts"),
		escalations: obs.Default.Counter(prefix + "escalations"),
	}
}

// Engine is the conflict cascade of one object. It satisfies the locking
// package's Guard interface (structurally), exposes cache invalidation for
// the object's commit/abort hooks, and reports itself state-based so
// update-in-place recovery rejects it.
type Engine struct {
	tables  Static     // the type's tables, consulted without Static's counters
	summary summarizer // nil when the spec has none
	cache   *decisionCache

	// Counters of the stages present; nil for an absent table or summary.
	name, args, sum, exact *stageCounters
}

// ForType builds the cascade for a type: its name-only table, its
// argument-aware table, the summary for its spec (accounts and integer
// sets), and the memoised exact search. Missing tables and summaries are
// skipped; the exact stage is always present, so the cascade decides every
// input.
func ForType(t adts.Type) *Engine {
	e := &Engine{
		tables: *StaticForType(t),
		cache:  newDecisionCache(defaultCacheEntries),
		exact:  newStageCounters("exact"),
	}
	if t.ConflictsNameOnly != nil {
		e.name = newStageCounters("name")
	}
	if t.Conflicts != nil {
		e.args = newStageCounters("args")
	}
	if t.Spec != nil {
		switch t.Spec.Name() {
		case adts.AccountSpec{}.Name():
			e.summary = AccountSummary{}
		case adts.IntSetSpec{}.Name():
			e.summary = IntSetSummary{}
		}
		if e.summary != nil {
			e.sum = newStageCounters("summary")
		}
	}
	return e
}

// Allowed runs the cascade. It has the locking Guard signature: true means
// granting cand is sound, false means the requester must wait. An error
// reports a misconfiguration (the summary asked about a state of the wrong
// type, ErrTypeMismatch) — the call must not silently wait on it.
func (e *Engine) Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	if e.name != nil {
		if TableAllowed(e.tables.nameOnly, cand, others) {
			e.name.commutes.Inc()
			return true, nil
		}
		e.name.escalations.Inc()
	}
	if e.args != nil {
		if TableAllowed(e.tables.args, cand, others) {
			e.args.commutes.Inc()
			return true, nil
		}
		e.args.escalations.Inc()
	}
	if e.summary != nil {
		v, err := e.summary.Decide(base, mine, cand, others)
		if err != nil {
			return false, err
		}
		if v == Commutes {
			e.sum.commutes.Inc()
			return true, nil
		}
		// A summary denial is conservative (the account summary denies a
		// deposit against any recorded failed withdrawal, even one too
		// large for the deposit to flip): the exact search decides.
		e.sum.escalations.Inc()
	}
	if e.exactAllowed(base, mine, cand, others) {
		e.exact.commutes.Inc()
		return true, nil
	}
	e.exact.conflicts.Inc()
	return false, nil
}

// exactAllowed is the exact stage: ExactSearch at the default bounds behind
// the decision cache.
func (e *Engine) exactAllowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) bool {
	key := decisionKey(base, mine, cand, others)
	if ok, hit := e.cache.get(key); hit {
		return ok
	}
	ok := ExactSearch(base, mine, cand, others, 0, 0)
	e.cache.put(key, ok)
	return ok
}

// InvalidateConflictCache drops the exact stage's memoised decisions. The
// locking object calls it on every commit and abort: the committed base
// may have moved and pending blocks drained, so the cached keys are dead
// weight (they can never be *wrong* — the key covers the full decision
// input — but they would accumulate without bound).
func (e *Engine) InvalidateConflictCache() { e.cache.clear() }

// StateBased reports that the engine consults the base state (its exact
// stage always does). State-based engines are incompatible with
// update-in-place recovery, whose base includes uncommitted effects.
func (e *Engine) StateBased() bool { return true }
