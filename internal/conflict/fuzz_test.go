package conflict

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// FuzzExactMemo checks that the engine's memoised exact stage is
// indistinguishable from the unmemoised search: on an arbitrary account
// scenario the stage's decision equals ExactSearch, asking the same
// question twice (a cache hit) gives the same answer, and the answer
// survives a cache invalidation.
// `make fuzz-smoke` runs this for a bounded time in CI.
func FuzzExactMemo(f *testing.F) {
	f.Add(int64(10), []byte{0x07, 0x01, 0x12, 0x23, 0x0a})
	f.Add(int64(0), []byte{0x0c, 0x05, 0x09, 0x11, 0x02, 0x1f})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, bal int64, data []byte) {
		if bal < 0 {
			bal = -bal
		}
		base := spec.State(adts.AccountState(bal % 64))

		idx := 0
		next := func() byte {
			if idx >= len(data) {
				return 0
			}
			b := data[idx]
			idx++
			return b
		}
		// genCall derives one self-consistent call by applying a decoded
		// invocation to st (results recorded from the replayed state, the
		// same way a live object records intentions).
		genCall := func(st spec.State) (spec.Call, spec.State) {
			b := next()
			var in spec.Invocation
			switch b % 3 {
			case 0:
				in = spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(int64((b >> 2) % 8))}
			case 1:
				in = spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(int64(1 + (b>>2)%8))}
			default:
				in = spec.Invocation{Op: adts.OpBalance}
			}
			out, err := spec.Apply(st, in)
			if err != nil {
				t.Fatalf("apply %v: %v", in, err)
			}
			return spec.Call{Inv: in, Result: out.Result}, out.Next
		}

		shape := next()
		var mine []spec.Call
		st := base
		for k := int(shape % 3); k > 0; k-- {
			var c spec.Call
			c, st = genCall(st)
			mine = append(mine, c)
		}
		cand, _ := genCall(st)
		others := make([][]spec.Call, int(shape>>2)%4)
		for i := range others {
			ost := base
			var block []spec.Call
			for k := 1 + int(next()%2); k > 0; k-- {
				var c spec.Call
				c, ost = genCall(ost)
				block = append(block, c)
			}
			others[i] = block
		}

		want := ExactSearch(base, mine, cand, others, 0, 0)
		e := ForType(adts.Account())
		for i := 0; i < 2; i++ {
			if got := e.exactAllowed(base, mine, cand, others); got != want {
				t.Fatalf("decide %d: memoised %t, unmemoised search %t", i, got, want)
			}
		}
		if n := e.cache.len(); n != 1 {
			t.Fatalf("cache len = %d after two identical decisions, want 1", n)
		}
		e.InvalidateConflictCache()
		if got := e.exactAllowed(base, mine, cand, others); got != want {
			t.Fatalf("post-invalidation %t, want %t", got, want)
		}
	})
}
