package conflict

import (
	"errors"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func call(op string, arg, res value.Value) spec.Call {
	return spec.Call{Inv: spec.Invocation{Op: op, Arg: arg}, Result: res}
}

func deposit(n int64) spec.Call  { return call(adts.OpDeposit, value.Int(n), value.Unit()) }
func withdraw(n int64) spec.Call { return call(adts.OpWithdraw, value.Int(n), value.Unit()) }
func balance(b int64) spec.Call  { return call(adts.OpBalance, value.Nil(), value.Int(b)) }
func failedWithdraw(n int64) spec.Call {
	return call(adts.OpWithdraw, value.Int(n), adts.InsufficientFunds)
}

// intSet builds a reachable set state containing the given elements.
func intSet(t *testing.T, elems ...int64) spec.State {
	t.Helper()
	st := spec.State(adts.IntSetSpec{}.Init())
	for _, n := range elems {
		out, err := spec.Apply(st, spec.Invocation{Op: adts.OpInsert, Arg: value.Int(n)})
		if err != nil {
			t.Fatal(err)
		}
		st = out.Next
	}
	return st
}

func mustAllow(t *testing.T, e *Engine, base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) bool {
	t.Helper()
	ok, err := e.Allowed(base, mine, cand, others)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return ok
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{Unknown: "unknown", Commutes: "commutes", Conflicts: "conflicts", Verdict(99): "unknown"} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, got, want)
		}
	}
}

// TestCascadeTierResolution drives the account cascade with inputs designed
// to resolve at each stage and checks where they landed via the exact
// stage's cache occupancy (only inputs that reach it are cached).
func TestCascadeTierResolution(t *testing.T) {
	e := ForType(adts.Account())
	if e.cache == nil {
		t.Fatal("account cascade has no exact-stage cache")
	}
	base := spec.State(adts.AccountState(100))

	// Resolved by the conflict table: deposits pairwise commute.
	if !mustAllow(t, e, base, nil, deposit(1), [][]spec.Call{{deposit(2)}}) {
		t.Error("deposit vs deposit denied")
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("table-resolved decision reached the exact stage (cache len %d)", n)
	}

	// Resolved by the summary: covered withdrawals against mutators.
	if !mustAllow(t, e, base, nil, withdraw(3), [][]spec.Call{{withdraw(4)}, {withdraw(5)}}) {
		t.Error("covered withdrawal denied")
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("summary-resolved decision reached the exact stage (cache len %d)", n)
	}

	// Escalates to the exact stage: the summary conservatively refuses a
	// deposit against a recorded failure, but the failure is too large for
	// the deposit to flip, so the exact search grants.
	if !mustAllow(t, e, base, nil, deposit(1), [][]spec.Call{{failedWithdraw(1_000_000)}}) {
		t.Error("unflippable failure should not block the deposit at the exact stage")
	}
	if n := e.cache.len(); n != 1 {
		t.Errorf("exact-stage decision not cached (cache len %d)", n)
	}

	// And the exact stage still denies what is genuinely inadmissible.
	if mustAllow(t, e, base, nil, withdraw(60), [][]spec.Call{{withdraw(50)}}) {
		t.Error("uncovered withdrawal granted")
	}
}

// TestEngineCacheHitAndInvalidate: a question that reaches the exact stage
// (the tables and the summary all pass it on) is memoised under an
// order-insensitive key and recomputed, unchanged, after invalidation.
func TestEngineCacheHitAndInvalidate(t *testing.T) {
	e := ForType(adts.Account())
	base := spec.State(adts.AccountState(10))
	others := [][]spec.Call{{withdraw(4)}, {withdraw(3)}}

	first := mustAllow(t, e, base, nil, withdraw(5), others)
	if first {
		t.Fatal("withdraw(5) granted although 4+3+5 > 10")
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache len = %d after first decision, want 1", n)
	}
	// Same question again: answered from the cache, same verdict.
	if again := mustAllow(t, e, base, nil, withdraw(5), others); again != first {
		t.Fatalf("cached decision %t != fresh decision %t", again, first)
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache len = %d after repeat, want 1", n)
	}
	// Others in a different slice order is the same question.
	if v := mustAllow(t, e, base, nil, withdraw(5), [][]spec.Call{{withdraw(3)}, {withdraw(4)}}); v != first {
		t.Fatal("reordered others changed the decision")
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache len = %d after reordered repeat, want 1 (order-insensitive key)", n)
	}

	e.InvalidateConflictCache()
	if n := e.cache.len(); n != 0 {
		t.Fatalf("cache len = %d after invalidation, want 0", n)
	}
	if v := mustAllow(t, e, base, nil, withdraw(5), others); v != first {
		t.Fatal("recomputed decision diverged after invalidation")
	}
}

// TestSummaryEscalationVsStandalone: inside the cascade the summary's
// conservative denials escalate and the exact stage overrides them;
// standalone (the escrow guard) the denial is authoritative.
func TestSummaryEscalationVsStandalone(t *testing.T) {
	base := spec.State(adts.AccountState(100))
	cand := deposit(1)
	others := [][]spec.Call{{failedWithdraw(1_000_000)}}

	if v, err := (AccountSummary{}).Decide(base, nil, cand, others); err != nil || v != Conflicts {
		t.Fatalf("standalone summary: verdict %v err %v, want Conflicts", v, err)
	}
	if !mustAllow(t, ForType(adts.Account()), base, nil, cand, others) {
		t.Fatal("cascade kept the summary's conservative denial")
	}
}

func TestTypeMismatchError(t *testing.T) {
	// The account summary asked about a set state: a misconfigured guard.
	// The error must surface (not a silent deny) and must carry
	// ErrTypeMismatch so callers can abort instead of waiting.
	if _, err := (AccountSummary{}).Decide(intSet(t, 1), nil, balance(0), nil); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("account summary on a set state: err = %v, want ErrTypeMismatch", err)
	}
	// Same through the account cascade, once the tables pass it on.
	if _, err := ForType(adts.Account()).Allowed(intSet(t, 1), nil, balance(0), [][]spec.Call{{deposit(1)}}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("engine: err = %v, want ErrTypeMismatch", err)
	}
	// And from the set summarizer, symmetrically.
	if _, err := (IntSetSummary{}).Decide(spec.State(adts.AccountState(0)), nil, call(adts.OpInsert, value.Int(1), value.Unit()), nil); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("intset summary on an account state: err = %v, want ErrTypeMismatch", err)
	}
}

func TestIntSetSummary(t *testing.T) {
	s := IntSetSummary{}
	base := intSet(t, 3)
	ins := func(n int64) spec.Call { return call(adts.OpInsert, value.Int(n), value.Unit()) }
	member := func(n int64, v bool) spec.Call { return call(adts.OpMember, value.Int(n), value.Bool(v)) }
	del3 := call(adts.OpDelete, value.Int(3), value.Unit())
	size := call(adts.OpSize, value.Nil(), value.Int(1))

	cases := []struct {
		name   string
		mine   []spec.Call
		cand   spec.Call
		others [][]spec.Call
		want   Verdict
	}{
		// insert(3) with 3 in the base and nobody deleting it is a pure
		// no-op: commutes even with a pending size observer the argument
		// table must block on.
		{"noop insert", nil, ins(3), [][]spec.Call{{size}}, Commutes},
		// A pending delete(3) in another block makes membership unstable.
		{"insert vs pending delete", nil, ins(3), [][]spec.Call{{del3}}, Unknown},
		// ... or in the requester's own prior calls.
		{"insert after own delete", []spec.Call{del3}, ins(3), nil, Unknown},
		// Deleting an absent element is the dual no-op.
		{"noop delete", nil, call(adts.OpDelete, value.Int(7), value.Bool(false)), [][]spec.Call{{size}}, Commutes},
		// Inserting a genuinely new element changes state: escalate.
		{"real insert", nil, ins(7), [][]spec.Call{{size}}, Unknown},
		// A membership observation whose answer is stable commutes.
		{"stable member", nil, member(3, true), [][]spec.Call{{ins(1)}}, Commutes},
		{"stable absent member", nil, member(7, false), [][]spec.Call{{ins(1)}}, Commutes},
		// The observation is unstable if a pending call can flip it.
		{"unstable member", nil, member(7, false), [][]spec.Call{{ins(7)}}, Unknown},
		// A recorded answer contradicting the base is not stable.
		{"wrong member", nil, member(3, false), nil, Unknown},
	}
	for _, c := range cases {
		v, err := s.Decide(base, c.mine, c.cand, c.others)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v != c.want {
			t.Errorf("%s: got %v, want %v", c.name, v, c.want)
		}
		if v == Conflicts {
			t.Errorf("%s: IntSetSummary must never answer Conflicts", c.name)
		}
	}
}

// TestForTypeQueueComposition: the queue has no summarizer, so its cascade
// is tables + exact; interleaved enqueues defeat both tables (enqueue order
// is observable) but the exact stage proves the paper's §5.1 interleaving
// admissible.
func TestForTypeQueueComposition(t *testing.T) {
	e := ForType(adts.Queue())
	if !e.StateBased() {
		t.Fatal("a cascade ending in the exact stage is state-based")
	}
	base := adts.QueueSpec{}.Init()
	enq := func(n int64) spec.Call { return call(adts.OpEnqueue, value.Int(n), value.Unit()) }
	if !mustAllow(t, e, base, []spec.Call{enq(1), enq(2)}, enq(2), [][]spec.Call{{enq(1), enq(2)}}) {
		t.Error("paper queue interleaving denied")
	}
	dq := call(adts.OpDequeue, value.Nil(), value.Int(1))
	if mustAllow(t, e, base, nil, dq, [][]spec.Call{{enq(1)}}) {
		t.Error("dequeue granted while the enqueuer is uncommitted")
	}
}

// TestStateBased: every cascade ends in the exact stage, so every engine
// reports state-based and update-in-place recovery refuses it.
func TestStateBased(t *testing.T) {
	for _, ty := range []adts.Type{adts.Account(), adts.IntSet(), adts.Queue()} {
		if !ForType(ty).StateBased() {
			t.Errorf("%s cascade must report state-based", ty.Spec.Name())
		}
	}
}

func TestStaticCascade(t *testing.T) {
	s := StaticForType(adts.Queue())
	enq := spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(1)}
	deq := spec.Invocation{Op: adts.OpDequeue}
	if !s.Conflicts(enq, deq) {
		t.Error("enqueue/dequeue must conflict")
	}
	enq2 := spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(2)}
	if !s.Conflicts(enq, enq2) {
		t.Error("enqueues of different values conflict pairwise (order is observable)")
	}
	if s.Conflicts(enq, enq) {
		t.Error("enqueues of equal values commute")
	}
	sa := StaticForType(adts.Account())
	dep := spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)}
	if sa.Conflicts(dep, dep) {
		t.Error("deposit/deposit must commute")
	}
	if !sa.CommutesWithAll(dep, []spec.Call{deposit(2), deposit(3)}) {
		t.Error("deposit commutes with a deposit-only block")
	}
	if sa.CommutesWithAll(dep, []spec.Call{deposit(2), balance(0)}) {
		t.Error("deposit must not commute past a balance read")
	}
	// Nil predicates: nothing is known to commute.
	if !NewStatic(nil, nil).Conflicts(dep, dep) {
		t.Error("a nil static cascade must report conflict")
	}
}
