package locking

import (
	"errors"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func call(op string, arg, res value.Value) spec.Call {
	return spec.Call{Inv: spec.Invocation{Op: op, Arg: arg}, Result: res}
}

// allow invokes a guard and fails the test on a guard error (the tests
// below exercise decision logic; the error path has its own test).
func allow(t *testing.T, g Guard, base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) bool {
	t.Helper()
	ok, err := g.Allowed(base, mine, cand, others)
	if err != nil {
		t.Fatalf("guard error: %v", err)
	}
	return ok
}

func TestRWGuard(t *testing.T) {
	g := RWGuard{IsWrite: adts.AccountIsWrite}
	base := adts.AccountSpec{}.Init()
	dep := call(adts.OpDeposit, value.Int(5), value.Unit())
	bal := call(adts.OpBalance, value.Nil(), value.Int(0))

	if !allow(t, g, base, nil, dep, nil) {
		t.Error("write with no others denied")
	}
	if allow(t, g, base, nil, dep, [][]spec.Call{{bal}}) {
		t.Error("write allowed against reader")
	}
	if allow(t, g, base, nil, bal, [][]spec.Call{{dep}}) {
		t.Error("read allowed against writer")
	}
	if !allow(t, g, base, nil, bal, [][]spec.Call{{bal}}) {
		t.Error("read denied against reader")
	}
}

func TestTableGuard(t *testing.T) {
	g := TableGuard{Conflicts: adts.IntSetConflicts}
	base := adts.IntSetSpec{}.Init()
	i3 := call(adts.OpInsert, value.Int(3), value.Unit())
	m3 := call(adts.OpMember, value.Int(3), value.Bool(true))
	m4 := call(adts.OpMember, value.Int(4), value.Bool(false))

	if !allow(t, g, base, nil, i3, [][]spec.Call{{m4}}) {
		t.Error("insert(3) denied against member(4)")
	}
	if allow(t, g, base, nil, i3, [][]spec.Call{{m4, m3}}) {
		t.Error("insert(3) allowed against member(3)")
	}
}

// TestExactGuardConcurrentWithdrawals reproduces §5.1: with a committed
// balance of 10, withdrawals of 4 and 3 by different transactions are both
// grantable under state-based dynamic atomicity, but a further withdrawal
// of 5 is not (some order would bounce it) — the three-transaction case
// where pairwise reasoning is unsound.
func TestExactGuardConcurrentWithdrawals(t *testing.T) {
	g := ExactGuard{}
	base := spec.State(adts.AccountState(10))
	w4 := call(adts.OpWithdraw, value.Int(4), value.Unit())
	w3 := call(adts.OpWithdraw, value.Int(3), value.Unit())
	w5 := call(adts.OpWithdraw, value.Int(5), value.Unit())

	if !allow(t, g, base, nil, w4, nil) {
		t.Error("first withdrawal denied")
	}
	if !allow(t, g, base, nil, w3, [][]spec.Call{{w4}}) {
		t.Error("second withdrawal denied with 10 >= 4+3")
	}
	if allow(t, g, base, nil, w5, [][]spec.Call{{w4}, {w3}}) {
		t.Error("third withdrawal allowed although 4+3+5 > 10")
	}
}

// TestEscrowGuardAgreesWithExactOnWithdrawals: the O(1) escrow rule and the
// exhaustive check agree on the mutator-only cases.
func TestEscrowGuardAgreesWithExactOnWithdrawals(t *testing.T) {
	exact := ExactGuard{}
	escrow := EscrowGuard{}
	w := func(n int64) spec.Call { return call(adts.OpWithdraw, value.Int(n), value.Unit()) }
	d := func(n int64) spec.Call { return call(adts.OpDeposit, value.Int(n), value.Unit()) }
	cases := []struct {
		bal    int64
		mine   []spec.Call
		cand   spec.Call
		others [][]spec.Call
	}{
		{10, nil, w(4), nil},
		{10, nil, w(3), [][]spec.Call{{w(4)}}},
		{10, nil, w(5), [][]spec.Call{{w(4)}, {w(3)}}},
		{10, []spec.Call{w(2)}, w(4), [][]spec.Call{{w(4)}}},
		{0, nil, w(4), [][]spec.Call{{d(10)}}},
		{0, []spec.Call{d(10)}, w(4), nil},
		{3, nil, d(1), [][]spec.Call{{w(2)}}},
		{5, nil, w(4), [][]spec.Call{{d(1), w(3)}}},
	}
	for i, c := range cases {
		base := spec.State(adts.AccountState(c.bal))
		got := allow(t, escrow, base, c.mine, c.cand, c.others)
		want := allow(t, exact, base, c.mine, c.cand, c.others)
		if got != want {
			t.Errorf("case %d: escrow=%t exact=%t (bal=%d cand=%v others=%v)", i, got, want, c.bal, c.cand, c.others)
		}
	}
}

func TestEscrowGuardObserverRules(t *testing.T) {
	g := EscrowGuard{}
	base := spec.State(adts.AccountState(10))
	bal := call(adts.OpBalance, value.Nil(), value.Int(10))
	dep := call(adts.OpDeposit, value.Int(5), value.Unit())
	wOK := call(adts.OpWithdraw, value.Int(4), value.Unit())
	wFail := call(adts.OpWithdraw, value.Int(100), adts.InsufficientFunds)

	// Balance is granted only when the others' pending work nets to zero.
	if !allow(t, g, base, nil, bal, nil) {
		t.Error("balance denied with no others")
	}
	if !allow(t, g, base, nil, bal, [][]spec.Call{{bal}}) {
		t.Error("balance denied against balance")
	}
	if allow(t, g, base, nil, bal, [][]spec.Call{{dep}}) {
		t.Error("balance allowed against pending deposit")
	}
	if !allow(t, g, base, nil, bal, [][]spec.Call{{wFail}}) {
		t.Error("balance denied against a no-effect failed withdrawal")
	}
	// A deposit can flip another's recorded failure or balance: denied.
	if allow(t, g, base, nil, dep, [][]spec.Call{{wFail}}) {
		t.Error("deposit allowed against recorded insufficient_funds")
	}
	if allow(t, g, base, nil, dep, [][]spec.Call{{bal}}) {
		t.Error("deposit allowed against recorded balance")
	}
	if !allow(t, g, base, nil, dep, [][]spec.Call{{wOK}}) {
		t.Error("deposit denied against plain withdrawal")
	}
	// A successful withdrawal changes recorded balances: denied.
	if allow(t, g, base, nil, wOK, [][]spec.Call{{bal}}) {
		t.Error("withdrawal allowed against recorded balance")
	}
	// But it cannot flip a recorded failure: allowed.
	if !allow(t, g, base, nil, wOK, [][]spec.Call{{wFail}}) {
		t.Error("withdrawal denied against recorded insufficient_funds")
	}
	// A failure is granted only if even the best case cannot cover it.
	if !allow(t, g, base, nil, wFail, [][]spec.Call{{dep}}) {
		t.Error("clear failure denied")
	}
	nearMiss := call(adts.OpWithdraw, value.Int(12), adts.InsufficientFunds)
	if allow(t, g, base, nil, nearMiss, [][]spec.Call{{dep}}) {
		t.Error("failure allowed although the pending deposit could cover it")
	}
	// Non-account state: a configuration error, reported as such rather
	// than silently denied (a silent deny would park the requester in the
	// wait set forever — nothing about the state can change to admit it).
	if ok, err := g.Allowed(adts.IntSetSpec{}.Init(), nil, bal, nil); ok || !errors.Is(err, conflict.ErrTypeMismatch) {
		t.Errorf("escrow on non-account state: ok=%t err=%v, want ErrTypeMismatch", ok, err)
	}
	// Unknown op: conservatively denied (no error; the op may be valid for
	// a future summariser, and denial is always sound).
	if allow(t, g, base, nil, call("bogus", value.Nil(), value.Nil()), nil) {
		t.Error("escrow accepted an unknown op")
	}
}

// TestExactGuardQueueScenario is the §5.1 queue example at guard level:
// interleaved enqueues by two transactions are admissible (every order of
// the two blocks replays ok), while a dequeue concurrent with them is not.
func TestExactGuardQueueScenario(t *testing.T) {
	g := ExactGuard{}
	base := adts.QueueSpec{}.Init()
	enq := func(n int64) spec.Call { return call(adts.OpEnqueue, value.Int(n), value.Unit()) }

	// a has enqueued 1; b requests enqueue(1): fine.
	if !allow(t, g, base, nil, enq(1), [][]spec.Call{{enq(1)}}) {
		t.Error("b's enqueue(1) denied")
	}
	// a has [1]; a requests enqueue(2) while b holds [1]: fine.
	if !allow(t, g, base, []spec.Call{enq(1)}, enq(2), [][]spec.Call{{enq(1)}}) {
		t.Error("a's enqueue(2) denied")
	}
	// Full paper interleaving: a=[1,2], b=[1], b requests enqueue(2).
	if !allow(t, g, base, []spec.Call{enq(1), enq(2)}, enq(2), [][]spec.Call{{enq(1), enq(2)}}) {
		t.Error("final enqueue denied; the paper's queue history must be admissible")
	}
	// A dequeue while both are active: the result depends on the order.
	dq := call(adts.OpDequeue, value.Nil(), value.Int(1))
	if allow(t, g, base, nil, dq, [][]spec.Call{{enq(1), enq(2)}, {enq(1), enq(2)}}) {
		t.Error("dequeue allowed while enqueuers are uncommitted")
	}
}

// TestExactGuardSubsetSensitivity: feasibility must hold for every SUBSET
// of the other transactions (any of them may abort), not just the full set.
func TestExactGuardSubsetSensitivity(t *testing.T) {
	g := ExactGuard{}
	base := adts.IntSetSpec{}.Init()
	ins := call(adts.OpInsert, value.Int(3), value.Unit())
	memTrue := call(adts.OpMember, value.Int(3), value.Bool(true))
	// member(3)=true is infeasible if the inserting transaction aborts, and
	// infeasible in the order me-first; it must be denied.
	if allow(t, g, base, nil, memTrue, [][]spec.Call{{ins}}) {
		t.Error("member(3)=true granted against an uncommitted insert")
	}
}

// TestExactGuardBlockCap: past conflict.DefaultMaxBlocks concurrent blocks
// the guard denies conservatively, although the call is admissible — the
// same search with the bounds raised grants it.
func TestExactGuardBlockCap(t *testing.T) {
	base := spec.State(adts.AccountState(100))
	w := call(adts.OpWithdraw, value.Int(1), value.Unit())
	// With the requester's block, one block over the cap.
	others := make([][]spec.Call, conflict.DefaultMaxBlocks)
	for i := range others {
		others[i] = []spec.Call{w}
	}
	if allow(t, ExactGuard{}, base, nil, w, others) {
		t.Error("guard over block cap must conservatively deny")
	}
	if !conflict.ExactSearch(base, nil, w, others, len(others)+1, 1<<20) {
		t.Fatal("the call is admissible once the bounds cover the search")
	}
	if !allow(t, ExactGuard{}, base, nil, w, others[:1]) {
		t.Error("guard within cap must grant")
	}
}

func TestExactGuardNondeterministicSpecIsConservative(t *testing.T) {
	// pick's recorded result constrains the state; the guard must still
	// terminate and stay sound (it may be conservative).
	g := ExactGuard{}
	base := adts.IntSetSpec{}.Init()
	ins1 := call(adts.OpInsert, value.Int(1), value.Unit())
	pick1 := call(adts.OpPick, value.Nil(), value.Int(1))
	if allow(t, g, base, []spec.Call{pick1}, pick1, [][]spec.Call{{ins1}}) {
		t.Error("pick=1 cannot be granted when the only inserter may abort")
	}
}

// embeddedGuard wraps a guard by embedding it and forwards nothing else.
type embeddedGuard struct{ Guard }

// forwardingGuard wraps a guard the way a tracing decorator does: it
// embeds Guard and forwards the two methods the object finds by type
// assertion.
type forwardingGuard struct{ Guard }

func (g forwardingGuard) InvalidateConflictCache() {
	if inv, ok := g.Guard.(interface{ InvalidateConflictCache() }); ok {
		inv.InvalidateConflictCache()
	}
}

func (g forwardingGuard) StateBased() bool {
	sb, ok := g.Guard.(interface{ StateBased() bool })
	return ok && sb.StateBased()
}

// TestWrappedCascadeCacheClearedOnCommit: a cascade behind a forwarding
// wrapper still has its decision cache cleared by an object commit and
// still refuses update-in-place recovery. b's deposit reaches the exact
// stage (a's recorded failed withdrawal defeats the tables and the
// summary); b then withdraws it back and commits, so the base returns to
// 100 and c's deposit asks the exact stage b's first question again. It
// must miss: the commit cleared the cache. The embedding-only wrapper is
// the control — its cache survives the commit and c hits.
func TestWrappedCascadeCacheClearedOnCommit(t *testing.T) {
	hits := obs.Default.Counter("cc.conflict.cache.hits")
	misses := obs.Default.Counter("cc.conflict.cache.misses")
	for _, c := range []struct {
		name    string
		wrap    func(Guard) Guard
		wantHit bool
	}{
		{"forwarding", func(g Guard) Guard { return forwardingGuard{g} }, false},
		{"embedding only", func(g Guard) Guard { return embeddedGuard{g} }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.wrap(conflict.ForType(adts.Account()))
			o, _ := newAccountObject(t, g, nil)
			a, b, d := txn("a", 1), txn("b", 2), txn("c", 3)
			if got := mustInvoke(t, o, a, adts.OpWithdraw, value.Int(1_000_000)); got != adts.InsufficientFunds {
				t.Fatalf("withdraw(1000000) = %v, want insufficient funds", got)
			}
			mustInvoke(t, o, b, adts.OpDeposit, value.Int(1))
			mustInvoke(t, o, b, adts.OpWithdraw, value.Int(1))
			o.Commit(b, histories.TSNone)

			wantHits, wantMisses := int64(0), int64(1)
			if c.wantHit {
				wantHits, wantMisses = 1, 0
			}
			h0, m0 := hits.Load(), misses.Load()
			mustInvoke(t, o, d, adts.OpDeposit, value.Int(1))
			if got := hits.Load() - h0; got != wantHits {
				t.Errorf("cache hits moved by %d, want %d", got, wantHits)
			}
			if got := misses.Load() - m0; got != wantMisses {
				t.Errorf("cache misses moved by %d, want %d", got, wantMisses)
			}

			_, err := New(Config{ID: "y", Type: adts.Account(), Guard: g, Detector: NewDetector(), UpdateInPlace: true})
			if refused := err != nil; refused == c.wantHit {
				t.Errorf("update-in-place refused = %t (err %v)", refused, err)
			}
		})
	}
}
