package adts

import (
	"strconv"

	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Bank-account operation names and results.
const (
	OpDeposit  = "deposit"  // deposit(n) -> ok
	OpWithdraw = "withdraw" // withdraw(n) -> ok | insufficient_funds
	OpBalance  = "balance"  // balance -> int
)

// InsufficientFunds is the abnormal termination of withdraw described in
// §5.1: the account balance is too small to cover the request.
var InsufficientFunds = value.Str("insufficient_funds")

// AccountSpec is the bank-account object of §5.1: initial balance zero,
// with operations to deposit a sum, withdraw a sum (terminating normally
// with ok or abnormally with insufficient_funds), and examine the balance.
type AccountSpec struct{}

var _ spec.SerialSpec = AccountSpec{}

// Name implements spec.SerialSpec.
func (AccountSpec) Name() string { return "account" }

// Init implements spec.SerialSpec.
func (AccountSpec) Init() spec.State { return AccountState(0) }

// AccountState is the account balance. It is exported so that the
// escrow-style state-based lock guard (internal/locking) can read the
// committed balance when deciding whether concurrent withdrawals are
// covered.
type AccountState int64

var _ spec.State = AccountState(0)

// Key implements spec.State.
func (s AccountState) Key() string { return strconv.FormatInt(int64(s), 10) }

// Balance returns the balance as an integer.
func (s AccountState) Balance() int64 { return int64(s) }

// Step implements spec.State.
func (s AccountState) Step(in spec.Invocation) []spec.Outcome {
	switch in.Op {
	case OpDeposit:
		n, okArg := in.Arg.AsInt()
		if !okArg || n < 0 {
			return nil
		}
		return one(ok, s+AccountState(n))
	case OpWithdraw:
		n, okArg := in.Arg.AsInt()
		if !okArg || n < 0 {
			return nil
		}
		if int64(n) > int64(s) {
			return one(InsufficientFunds, s)
		}
		return one(ok, s-AccountState(n))
	case OpBalance:
		if !in.Arg.IsNil() {
			return nil
		}
		return one(value.Int(int64(s)), s)
	default:
		return nil
	}
}

var _ spec.Deterministic = AccountState(0)

// StepOne implements spec.Deterministic: Step's one outcome, with no slice,
// and a read (or a refused withdrawal) keeps self as its next state.
func (s AccountState) StepOne(self spec.State, in spec.Invocation) (spec.Outcome, bool) {
	switch in.Op {
	case OpDeposit:
		n, okArg := in.Arg.AsInt()
		if !okArg || n < 0 {
			return spec.Outcome{}, false
		}
		return spec.Outcome{Result: ok, Next: s + AccountState(n)}, true
	case OpWithdraw:
		n, okArg := in.Arg.AsInt()
		if !okArg || n < 0 {
			return spec.Outcome{}, false
		}
		if int64(n) > int64(s) {
			return spec.Outcome{Result: InsufficientFunds, Next: self}, true
		}
		return spec.Outcome{Result: ok, Next: s - AccountState(n)}, true
	case OpBalance:
		if !in.Arg.IsNil() {
			return spec.Outcome{}, false
		}
		return spec.Outcome{Result: value.Int(int64(s)), Next: self}, true
	default:
		return spec.Outcome{}, false
	}
}

// AccountConflicts is the conflict relation the paper ascribes to the
// locking protocols in §5.1: two deposits commute; two withdrawals do not
// (if the balance covers either but not both, the results depend on order);
// a deposit does not commute with a withdrawal (the deposit may be what
// covers it); balance conflicts with both mutators.
func AccountConflicts(p, q spec.Invocation) bool {
	pw := AccountIsWrite(p.Op)
	qw := AccountIsWrite(q.Op)
	if !pw && !qw {
		return false // balance/balance
	}
	if p.Op == OpDeposit && q.Op == OpDeposit {
		return false
	}
	return true
}

// AccountConflictsNameOnly coincides with AccountConflicts: the account's
// conflict structure is determined by operation names alone (the amounts
// never help without looking at the state).
func AccountConflictsNameOnly(p, q spec.Invocation) bool { return AccountConflicts(p, q) }

// AccountIsWrite classifies account operations for read/write locking.
func AccountIsWrite(op string) bool { return op == OpDeposit || op == OpWithdraw }

// AccountInvert compensates mutations for update-in-place recovery: a
// deposit is undone by a withdrawal of the same amount and a successful
// withdrawal by a deposit; failed withdrawals and balance reads change
// nothing.
func AccountInvert(_ spec.State, in spec.Invocation, res value.Value) []spec.Invocation {
	n, hasArg := in.Arg.AsInt()
	if !hasArg {
		return nil
	}
	switch in.Op {
	case OpDeposit:
		return []spec.Invocation{inv(OpWithdraw, value.Int(n))}
	case OpWithdraw:
		if res != ok {
			return nil // insufficient_funds: no state change
		}
		return []spec.Invocation{inv(OpDeposit, value.Int(n))}
	default:
		return nil
	}
}

// Account returns the full Type bundle for the bank account.
func Account() Type {
	return Type{
		Spec:              AccountSpec{},
		Conflicts:         AccountConflicts,
		ConflictsNameOnly: AccountConflictsNameOnly,
		IsWrite:           AccountIsWrite,
		Invert:            AccountInvert,
	}
}
