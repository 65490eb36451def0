package adts

import (
	"testing"
	"testing/quick"

	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func TestAccountSerialBehaviour(t *testing.T) {
	calls, st := mustReplay(t, AccountSpec{}, []spec.Invocation{
		inv(OpBalance, value.Nil()),
		inv(OpDeposit, value.Int(10)),
		inv(OpWithdraw, value.Int(4)),
		inv(OpWithdraw, value.Int(7)), // only 6 left
		inv(OpBalance, value.Nil()),
		inv(OpWithdraw, value.Int(6)),
		inv(OpBalance, value.Nil()),
	})
	want := []value.Value{
		value.Int(0),
		value.Unit(),
		value.Unit(),
		InsufficientFunds,
		value.Int(6),
		value.Unit(),
		value.Int(0),
	}
	for i, w := range want {
		if calls[i].Result != w {
			t.Errorf("call %d (%v): result %v, want %v", i, calls[i].Inv, calls[i].Result, w)
		}
	}
	if st.(AccountState).Balance() != 0 {
		t.Errorf("final balance %d, want 0", st.(AccountState).Balance())
	}
}

func TestAccountRejectsBadArgs(t *testing.T) {
	st := AccountSpec{}.Init()
	bad := []spec.Invocation{
		inv(OpDeposit, value.Nil()),
		inv(OpDeposit, value.Int(-5)),
		inv(OpWithdraw, value.Int(-1)),
		inv(OpWithdraw, value.Str("x")),
		inv(OpBalance, value.Int(1)),
		inv("bogus", value.Nil()),
	}
	for _, in := range bad {
		if outs := st.Step(in); outs != nil {
			t.Errorf("Step(%v) = %v, want nil", in, outs)
		}
	}
}

// TestAccountConflictsPaperTable encodes §5.1's analysis verbatim: two
// deposits commute; two withdrawals do not; a deposit does not commute with
// a withdrawal.
func TestAccountConflictsPaperTable(t *testing.T) {
	dep := inv(OpDeposit, value.Int(10))
	wdr := inv(OpWithdraw, value.Int(4))
	bal := inv(OpBalance, value.Nil())
	tests := []struct {
		p, q spec.Invocation
		want bool
	}{
		{dep, dep, false},
		{wdr, wdr, true},
		{dep, wdr, true},
		{wdr, dep, true},
		{bal, dep, true},
		{bal, wdr, true},
		{bal, bal, false},
	}
	for _, tt := range tests {
		if got := AccountConflicts(tt.p, tt.q); got != tt.want {
			t.Errorf("Conflicts(%s,%s) = %t, want %t", tt.p.Op, tt.q.Op, got, tt.want)
		}
		if got := AccountConflictsNameOnly(tt.p, tt.q); got != tt.want {
			t.Errorf("ConflictsNameOnly(%s,%s) = %t, want %t", tt.p.Op, tt.q.Op, got, tt.want)
		}
	}
}

// TestAccountWithdrawNonCommutativityWitness demonstrates the paper's two
// §5.1 scenarios: a balance large enough for either withdrawal but not
// both, and a deposit that is needed to cover a withdrawal.
func TestAccountWithdrawNonCommutativityWitness(t *testing.T) {
	// Balance 5; withdraw(4) and withdraw(3): order determines which fails.
	st := spec.State(AccountState(5))
	w4 := inv(OpWithdraw, value.Int(4))
	w3 := inv(OpWithdraw, value.Int(3))
	if commutesFrom(st, w4, w3) {
		t.Error("withdraw(4)/withdraw(3) commute from balance 5; they must not")
	}
	// Balance 3; deposit(1) and withdraw(4): deposit first covers it.
	st = AccountState(3)
	d1 := inv(OpDeposit, value.Int(1))
	if commutesFrom(st, d1, w4) {
		t.Error("deposit(1)/withdraw(4) commute from balance 3; they must not")
	}
	// From a large balance both withdrawals succeed in either order — the
	// data-dependence the state-based guard exploits.
	st = AccountState(100)
	if !commutesFrom(st, w4, w3) {
		t.Error("withdrawals fail to commute from balance 100")
	}
}

func TestAccountInvert(t *testing.T) {
	st := AccountState(10)
	// Deposit compensated by withdraw.
	undo := AccountInvert(st, inv(OpDeposit, value.Int(5)), value.Unit())
	if len(undo) != 1 || undo[0].Op != OpWithdraw || undo[0].Arg != value.Int(5) {
		t.Errorf("invert deposit = %v", undo)
	}
	// Successful withdraw compensated by deposit.
	undo = AccountInvert(st, inv(OpWithdraw, value.Int(5)), value.Unit())
	if len(undo) != 1 || undo[0].Op != OpDeposit {
		t.Errorf("invert withdraw = %v", undo)
	}
	// Failed withdraw: nothing to undo.
	if undo := AccountInvert(st, inv(OpWithdraw, value.Int(50)), InsufficientFunds); undo != nil {
		t.Errorf("invert failed withdraw = %v", undo)
	}
	// Balance: nothing to undo.
	if undo := AccountInvert(st, inv(OpBalance, value.Nil()), value.Int(10)); undo != nil {
		t.Errorf("invert balance = %v", undo)
	}
}

func TestAccountInvertRoundTrip(t *testing.T) {
	f := func(bal uint16, amt uint8, depositOp bool) bool {
		st := spec.State(AccountState(int64(bal)))
		var in spec.Invocation
		if depositOp {
			in = inv(OpDeposit, value.Int(int64(amt)))
		} else {
			in = inv(OpWithdraw, value.Int(int64(amt)))
		}
		out, err := spec.Apply(st, in)
		if err != nil {
			return false
		}
		cur := out.Next
		for _, u := range AccountInvert(st, in, out.Result) {
			o, err := spec.Apply(cur, u)
			if err != nil {
				return false
			}
			cur = o.Next
		}
		return cur.Key() == st.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccountTypeBundle(t *testing.T) {
	ty := Account()
	if ty.Spec.Name() != "account" {
		t.Errorf("bundle spec name %q", ty.Spec.Name())
	}
	if !ty.IsWrite(OpDeposit) || !ty.IsWrite(OpWithdraw) || ty.IsWrite(OpBalance) {
		t.Error("IsWrite misclassifies")
	}
}

// TestAccountStepOneMatchesStep is the differential test of the
// allocation-free path spec.Apply takes: for deposits, withdrawals and
// balance reads over a range of balances and arguments — bad argument
// kinds, negative amounts, insufficient funds and unknown operations
// included — StepOne refuses exactly what Step refuses and otherwise
// returns Step's one outcome; spec.Apply returns the same. Reads and
// refused withdrawals keep the caller's boxed state, so through spec.Apply
// they allocate nothing.
func TestAccountStepOneMatchesStep(t *testing.T) {
	args := []value.Value{
		value.Nil(), value.Unit(), value.Str("5"), value.Bool(true),
		value.Int(-1), value.Int(0), value.Int(1), value.Int(7), value.Int(100), value.Int(1 << 40),
	}
	ops := []string{OpDeposit, OpWithdraw, OpBalance, "transfer", ""}
	for _, bal := range []AccountState{0, 1, 7, 99, 100, 101, 1 << 41} {
		self := spec.State(bal)
		for _, op := range ops {
			for _, arg := range args {
				in := inv(op, arg)
				outs := bal.Step(in)
				got, ok := bal.StepOne(self, in)
				if ok != (len(outs) == 1) || len(outs) > 1 {
					t.Fatalf("balance %d, %s: StepOne ok=%v, Step gave %d outcomes", bal, in, ok, len(outs))
				}
				if !ok {
					continue
				}
				if got.Result != outs[0].Result || got.Next != outs[0].Next {
					t.Errorf("balance %d, %s: StepOne = (%v, %v), Step = (%v, %v)", bal, in, got.Result, got.Next, outs[0].Result, outs[0].Next)
				}
				viaApply, err := spec.Apply(self, in)
				if err != nil || viaApply != got {
					t.Errorf("balance %d, %s: spec.Apply = %v, %v; want StepOne's %v", bal, in, viaApply, err, got)
				}
			}
		}
	}
	// A state too large for the runtime's preboxed small integers: boxing
	// it again would allocate.
	big := spec.State(AccountState(1 << 41))
	for _, in := range []spec.Invocation{inv(OpBalance, value.Nil()), inv(OpWithdraw, value.Int(1<<42))} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := spec.Apply(big, in); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s through spec.Apply allocates %.1f times, want 0", in, n)
		}
	}
}
