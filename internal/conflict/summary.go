package conflict

import (
	"errors"
	"fmt"

	"weihl83/internal/adts"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// obsTypeMismatch counts summary decisions asked about a base state of the
// wrong type — a misconfigured guard (e.g. the escrow guard on a queue).
// Before this counter existed the escrow guard silently denied forever,
// which surfaced as a lock-wait livelock; now the mismatch is counted and
// an ErrTypeMismatch error reaches the caller.
var obsTypeMismatch = obs.Default.Counter("cc.conflict.type_mismatch")

// ErrTypeMismatch reports a state-based decision procedure applied to a
// base state of the wrong type: the guard is misconfigured for the object.
// It is NOT retryable — waiting cannot fix a configuration error — so it
// aborts the invoking transaction's chain instead of livelocking it.
var ErrTypeMismatch = errors.New("conflict: base state does not match the guard's type")

// summarizer is stage 3 of the cascade (AccountSummary or IntSetSummary):
// a constant-time state-based decision over per-block summaries. Instead of
// replaying arrangements it
// folds each pending block into a small summary (the account summary's
// net/has-balance/has-failed-withdraw triple, the set summary's per-element
// touch sets) and decides from the summaries plus the base state. It obeys
// the guard soundness contract: Commutes only with proof, Conflicts when the
// summary shows the call cannot be granted (which may be conservative),
// Unknown otherwise. The cascade escalates both Conflicts and Unknown to
// the exact search; the escrow guard uses AccountSummary standalone, its
// denials final.
type summarizer interface {
	Decide(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (Verdict, error)
}

// --- bank account ---------------------------------------------------------

// AccountSummary is the escrow decision procedure for the bank-account
// type (§5.1): withdrawals are granted when the committed balance covers
// the worst case over all orders and subsets of the other transactions'
// pending work, deposits are always safe against other mutators, and the
// balance observer requires the others' pending work to be invisible.
//
// The per-block reasoning: in any arrangement, another transaction's block
// lands entirely before or after the requester, and any subset of the
// others may commit. The worst case for a successful withdrawal therefore
// adds min(0, net_j) for every other block j; the worst case for an
// insufficient_funds outcome adds max(0, net_j). Observers (balance calls)
// and failed withdrawals recorded by others constrain mutators exactly as
// derived in DESIGN.md.
type AccountSummary struct{}

var _ summarizer = AccountSummary{}

// accountFacts summarises one transaction's pending calls at an account.
type accountFacts struct {
	net int64
	// need is the minimum starting balance under which every successful
	// withdrawal in the block stays covered (from the prefix sums of the
	// block's mutations; 0 for a block with no successful withdrawals). A
	// block's net alone is not enough: [withdraw(2), deposit(3)] nets +1
	// but needs to start at 2, so another transaction lowering the balance
	// below 2 would invalidate its recorded "ok" — the soundness gap the
	// differential test against the exact search exposed.
	need              int64
	hasBalance        bool
	hasFailedWithdraw bool
}

func accountFactsOf(calls []spec.Call) accountFacts {
	var f accountFacts
	var run int64 // cumulative net of the block's prefix scanned so far
	for _, c := range calls {
		switch c.Inv.Op {
		case adts.OpDeposit:
			run += c.Inv.Arg.MustInt()
		case adts.OpWithdraw:
			if c.Result == value.Unit() {
				n := c.Inv.Arg.MustInt()
				if n-run > f.need {
					f.need = n - run
				}
				run -= n
			} else {
				f.hasFailedWithdraw = true
			}
		case adts.OpBalance:
			f.hasBalance = true
		}
	}
	f.net = run
	return f
}

// Decide decides cand from the block summaries.
func (AccountSummary) Decide(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (Verdict, error) {
	acct, ok := base.(adts.AccountState)
	if !ok {
		obsTypeMismatch.Inc()
		return Unknown, fmt.Errorf("%w: account summary over %T (key %s)", ErrTypeMismatch, base, base.Key())
	}
	bal := acct.Balance()
	my := accountFactsOf(mine)
	var worst, best int64 // Σ min(0,net_j) and Σ max(0,net_j)
	othersHaveBalance := false
	othersHaveFailedWithdraw := false
	othersHaveMutation := false
	facts := make([]accountFacts, 0, len(others))
	for _, block := range others {
		f := accountFactsOf(block)
		facts = append(facts, f)
		if f.net < 0 {
			worst += f.net
		} else {
			best += f.net
		}
		if f.net != 0 {
			othersHaveMutation = true
		}
		othersHaveBalance = othersHaveBalance || f.hasBalance
		othersHaveFailedWithdraw = othersHaveFailedWithdraw || f.hasFailedWithdraw
	}

	decide := func(ok bool) Verdict {
		if ok {
			return Commutes
		}
		return Conflicts
	}
	switch cand.Inv.Op {
	case adts.OpBalance:
		// The observed value must be the same whether each other block
		// lands before or after the requester: every other net must be 0.
		return decide(!othersHaveMutation), nil
	case adts.OpDeposit:
		// Raising the funds can flip another's recorded insufficient_funds
		// and changes another's recorded balance.
		return decide(!othersHaveBalance && !othersHaveFailedWithdraw), nil
	case adts.OpWithdraw:
		n := cand.Inv.Arg.MustInt()
		if cand.Result == value.Unit() {
			// Lowering the funds changes recorded balances; it cannot flip
			// a recorded failure. The candidate's own result must be covered
			// in the worst case over subsets of the others...
			if othersHaveBalance || bal+my.net+worst < n {
				return Conflicts, nil
			}
			// ... and every other block's successful withdrawals must stay
			// covered in arrangements where the requester's block (now nets
			// my.net-n) and any balance-lowering subset land before it.
			for _, f := range facts {
				if bal+my.net-n+worst-min(f.net, 0) < f.need {
					return Conflicts, nil
				}
			}
			return Commutes, nil
		}
		// insufficient_funds must hold even in the best case.
		return decide(bal+my.net+best < n), nil
	default:
		return Conflicts, nil
	}
}

// --- integer set ----------------------------------------------------------

// setMembership is how the summarizer reads the base set without depending
// on the concrete state type; adts' intSetState implements it.
type setMembership interface {
	Has(n int64) bool
}

// IntSetSummary is the per-block summary for the integer-set type: it
// proves commutativity exactly where the argument-aware table cannot — when
// the candidate is a state no-op. An insert of an element already in the
// base (and deleted by nobody pending) changes nothing in any arrangement,
// so it commutes even with pending size and pick observers; dually for a
// delete of an absent element, and for membership observations whose
// answer no pending block can change. It never answers Conflicts: when the
// no-op argument does not apply it escalates.
type IntSetSummary struct{}

var _ summarizer = IntSetSummary{}

// touches reports whether any call in calls is op(n).
func touches(calls []spec.Call, op string, n int64) bool {
	for _, c := range calls {
		if c.Inv.Op != op {
			continue
		}
		if m, ok := c.Inv.Arg.AsInt(); ok && m == n {
			return true
		}
	}
	return false
}

// Decide decides cand from the block summaries.
func (IntSetSummary) Decide(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (Verdict, error) {
	set, ok := base.(setMembership)
	if !ok {
		obsTypeMismatch.Inc()
		return Unknown, fmt.Errorf("%w: intset summary over %T (key %s)", ErrTypeMismatch, base, base.Key())
	}
	n, hasArg := cand.Inv.Arg.AsInt()
	if !hasArg {
		return Unknown, nil
	}
	// stable reports whether n's membership is v in EVERY reachable state:
	// v in the base, and no pending call (the requester's prior calls or
	// any other block, any subset, any order) moves it the other way.
	// Inserts cannot evict and deletes cannot add, so one direction each
	// suffices.
	stable := func(v bool) bool {
		if set.Has(n) != v {
			return false
		}
		flip := adts.OpDelete
		if !v {
			flip = adts.OpInsert
		}
		if touches(mine, flip, n) {
			return false
		}
		for _, block := range others {
			if touches(block, flip, n) {
				return false
			}
		}
		return true
	}
	switch cand.Inv.Op {
	case adts.OpInsert:
		// Inserting an element present in every reachable state is a pure
		// no-op: no arrangement's results — size, pick, membership, anyone's
		// — can depend on it.
		if stable(true) {
			return Commutes, nil
		}
	case adts.OpDelete:
		if stable(false) {
			return Commutes, nil
		}
	case adts.OpMember:
		// A membership observation commutes when its recorded answer holds
		// in every reachable state (it changes nothing itself).
		if v, okRes := cand.Result.AsBool(); okRes && stable(v) {
			return Commutes, nil
		}
	}
	return Unknown, nil
}
