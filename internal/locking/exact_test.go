package locking

import (
	"math/rand"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// bruteForceAllowed is the reference implementation of the exact guard's
// contract: every order of every subset of the blocks (the requester's
// block has cand appended) must replay the recorded results from base.
// It enumerates arrangements explicitly, with no memoization.
func bruteForceAllowed(s spec.SerialSpec, base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) bool {
	myBlock := append(append([]spec.Call(nil), mine...), cand)
	blocks := append([][]spec.Call{myBlock}, others...)
	n := len(blocks)
	used := make([]bool, n)

	var rec func(states []spec.State) bool
	rec = func(states []spec.State) bool {
		// Every prefix must itself be extendable feasibly; check each
		// unused block as the next element of the arrangement.
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			next := spec.FeasibleFrom(states, blocks[i])
			if next == nil {
				return false
			}
			used[i] = true
			ok := rec(next)
			used[i] = false
			if !ok {
				return false
			}
		}
		return true
	}
	return rec([]spec.State{base})
}

// TestExactGuardMatchesBruteForce cross-validates ExactGuard against the
// explicit enumeration on randomized account scenarios (deterministic
// spec, where the guard is exact rather than conservative).
func TestExactGuardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := adts.AccountSpec{}
	g := ExactGuard{}
	agreements, denials := 0, 0
	for trial := 0; trial < 400; trial++ {
		bal := int64(rng.Intn(12))
		base := spec.State(adts.AccountState(bal))

		randomCall := func(st spec.State) (spec.Call, spec.State) {
			var in spec.Invocation
			switch rng.Intn(3) {
			case 0:
				in = spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(int64(rng.Intn(4)))}
			case 1:
				in = spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(int64(1 + rng.Intn(5)))}
			default:
				in = spec.Invocation{Op: adts.OpBalance}
			}
			out, err := spec.Apply(st, in)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			return spec.Call{Inv: in, Result: out.Result}, out.Next
		}

		// The requester's prior calls, replayed from base so the results
		// are self-consistent.
		var mine []spec.Call
		st := base
		for k := rng.Intn(2); k > 0; k-- {
			var c spec.Call
			c, st = randomCall(st)
			mine = append(mine, c)
		}
		cand, _ := randomCall(st)

		// Other blocks: each replayed from base independently (as the
		// invariant guarantees each was granted from a mutually feasible
		// position; random blocks may violate the invariant, in which case
		// both implementations must agree it fails).
		others := make([][]spec.Call, rng.Intn(3))
		for i := range others {
			ost := base
			var block []spec.Call
			for k := 1 + rng.Intn(2); k > 0; k-- {
				var c spec.Call
				c, ost = randomCall(ost)
				block = append(block, c)
			}
			others[i] = block
		}

		got := allow(t, g, base, mine, cand, others)
		want := bruteForceAllowed(s, base, mine, cand, others)
		if got != want {
			t.Fatalf("trial %d: guard=%t brute=%t\nbal=%d mine=%v cand=%v others=%v",
				trial, got, want, bal, mine, cand, others)
		}
		if got {
			agreements++
		} else {
			denials++
		}
	}
	if agreements == 0 || denials == 0 {
		t.Logf("coverage note: agreements=%d denials=%d", agreements, denials)
	}
}

// TestExactGuardMatchesBruteForceOnSets repeats the cross-validation on the
// integer set, whose conflicts are element-wise.
func TestExactGuardMatchesBruteForceOnSets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := adts.IntSetSpec{}
	g := ExactGuard{}
	for trial := 0; trial < 300; trial++ {
		base := spec.State(IntSetState(t, rng))
		randomCall := func(st spec.State) (spec.Call, spec.State) {
			n := value.Int(int64(rng.Intn(3)))
			var in spec.Invocation
			switch rng.Intn(3) {
			case 0:
				in = spec.Invocation{Op: adts.OpInsert, Arg: n}
			case 1:
				in = spec.Invocation{Op: adts.OpDelete, Arg: n}
			default:
				in = spec.Invocation{Op: adts.OpMember, Arg: n}
			}
			out, err := spec.Apply(st, in)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			return spec.Call{Inv: in, Result: out.Result}, out.Next
		}
		var mine []spec.Call
		st := base
		for k := rng.Intn(2); k > 0; k-- {
			var c spec.Call
			c, st = randomCall(st)
			mine = append(mine, c)
		}
		cand, _ := randomCall(st)
		others := make([][]spec.Call, rng.Intn(3))
		for i := range others {
			ost := base
			var block []spec.Call
			for k := 1 + rng.Intn(2); k > 0; k-- {
				var c spec.Call
				c, ost = randomCall(ost)
				block = append(block, c)
			}
			others[i] = block
		}
		got := allow(t, g, base, mine, cand, others)
		want := bruteForceAllowed(s, base, mine, cand, others)
		if got != want {
			t.Fatalf("trial %d: guard=%t brute=%t\nbase=%s mine=%v cand=%v others=%v",
				trial, got, want, base.Key(), mine, cand, others)
		}
	}
}

// IntSetState builds a random reachable set state.
func IntSetState(t *testing.T, rng *rand.Rand) spec.State {
	t.Helper()
	st := spec.State(adts.IntSetSpec{}.Init())
	for k := rng.Intn(4); k > 0; k-- {
		out, err := spec.Apply(st, spec.Invocation{Op: adts.OpInsert, Arg: value.Int(int64(rng.Intn(3)))})
		if err != nil {
			t.Fatal(err)
		}
		st = out.Next
	}
	return st
}
