package locking

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// countingSpec is the account specification with every Step counted, so a
// test can see how often an object replays its intentions.
type countingSpec struct{ steps *int }

func (s countingSpec) Name() string { return adts.AccountSpec{}.Name() }

func (s countingSpec) Init() spec.State {
	return countingState{State: adts.AccountSpec{}.Init(), steps: s.steps}
}

type countingState struct {
	spec.State
	steps *int
}

func (c countingState) Step(inv spec.Invocation) []spec.Outcome {
	*c.steps++
	outs := c.State.Step(inv)
	counted := make([]spec.Outcome, len(outs))
	for i, out := range outs {
		counted[i] = spec.Outcome{Result: out.Result, Next: countingState{State: out.Next, steps: c.steps}}
	}
	return counted
}

// admitAll grants every call. It breaks the Guard soundness contract on
// purpose, to reach states a sound guard never produces.
type admitAll struct{}

func (admitAll) Allowed(spec.State, []spec.Call, spec.Call, [][]spec.Call) (bool, error) {
	return true, nil
}

// newCountingAccount returns an account object whose spec counts Steps.
func newCountingAccount(t *testing.T, inPlace bool) (*Object, *int) {
	t.Helper()
	steps := new(int)
	ty := adts.Account()
	ty.Spec = countingSpec{steps: steps}
	o, err := New(Config{ID: "y", Type: ty, Guard: admitAll{}, Detector: NewDetector(), UpdateInPlace: inPlace})
	if err != nil {
		t.Fatal(err)
	}
	return o, steps
}

// stepsOf returns how many Steps f took.
func stepsOf(steps *int, f func()) int {
	before := *steps
	f()
	return *steps - before
}

func balanceOf(t *testing.T, o *Object) int64 {
	t.Helper()
	n, ok := o.Base().(countingState).State.(adts.AccountState)
	if !ok {
		t.Fatalf("base %T is not an account", o.Base())
	}
	return n.Balance()
}

// TestUncontendedInvokesStepOnce: a transaction's view is advanced by its
// own grants, so each invoke takes the one Step that computes its outcome
// and commit installs the view without replaying.
func TestUncontendedInvokesStepOnce(t *testing.T) {
	for _, inPlace := range []bool{false, true} {
		o, steps := newCountingAccount(t, inPlace)
		a := txn("a", 1)
		for i, op := range []spec.Invocation{
			{Op: adts.OpDeposit, Arg: value.Int(10)},
			{Op: adts.OpWithdraw, Arg: value.Int(3)},
			{Op: adts.OpBalance},
			{Op: adts.OpDeposit, Arg: value.Int(1)},
		} {
			if n := stepsOf(steps, func() { mustInvoke(t, o, a, op.Op, op.Arg) }); n != 1 {
				t.Errorf("inPlace=%v: invoke %d took %d Steps, want 1", inPlace, i, n)
			}
		}
		if n := stepsOf(steps, func() { o.Commit(a, histories.TSNone) }); n != 0 {
			t.Errorf("inPlace=%v: commit took %d Steps, want 0", inPlace, n)
		}
		if got := balanceOf(t, o); got != 8 {
			t.Errorf("inPlace=%v: balance %d, want 8", inPlace, got)
		}
	}
}

// TestMovedBaseReplaysOnce: another transaction's commit moves the base
// between two invokes. The next invoke replays the intentions once onto the
// new base, and commit then installs that view without replaying again.
func TestMovedBaseReplaysOnce(t *testing.T) {
	o, steps := newCountingAccount(t, false)
	a, b := txn("a", 1), txn("b", 2)
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(5))
	mustInvoke(t, o, a, adts.OpDeposit, value.Int(6))
	mustInvoke(t, o, b, adts.OpDeposit, value.Int(7))
	o.Commit(b, histories.TSNone)

	// Two replayed calls plus the new one.
	if n := stepsOf(steps, func() {
		if got := mustInvoke(t, o, a, adts.OpBalance, value.Nil()); got != value.Int(18) {
			t.Errorf("a reads %v, want 18", got)
		}
	}); n != 3 {
		t.Errorf("invoke after the base moved took %d Steps, want 3", n)
	}
	if n := stepsOf(steps, func() { mustInvoke(t, o, a, adts.OpDeposit, value.Int(1)) }); n != 1 {
		t.Errorf("next invoke took %d Steps, want 1", n)
	}
	if n := stepsOf(steps, func() { o.Commit(a, histories.TSNone) }); n != 0 {
		t.Errorf("commit took %d Steps, want 0", n)
	}
	if got := balanceOf(t, o); got != 19 {
		t.Errorf("balance %d, want 19", got)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

// TestCommitOntoMovedBaseDetectsDivergence: the commit-time guardrail
// still fires once the cached view was built on a base that has moved. T1
// and T2 each withdraw 60 from a balance of 100, which a sound guard never
// admits; T1 commits first, so T2's commit replays its withdrawal onto 40,
// where it cannot return ok.
func TestCommitOntoMovedBaseDetectsDivergence(t *testing.T) {
	o, err := New(Config{ID: "y", Type: adts.Account(), Guard: admitAll{}, Detector: NewDetector(), Initial: adts.AccountState(100)})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := txn("t1", 1), txn("t2", 2)
	mustInvoke(t, o, t1, adts.OpWithdraw, value.Int(60))
	if got := mustInvoke(t, o, t2, adts.OpWithdraw, value.Int(60)); got != value.Unit() {
		t.Fatalf("t2 withdraw(60) = %v, want ok", got)
	}
	o.Commit(t1, histories.TSNone)
	o.Commit(t2, histories.TSNone)
	if o.Err() == nil {
		t.Fatal("divergent commit not flagged")
	}
	if got := o.Base().(adts.AccountState).Balance(); got != 40 {
		t.Errorf("balance %d, want 40: the divergent commit must not install", got)
	}
}
