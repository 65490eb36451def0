package locking

import (
	"fmt"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Calls-per-transaction ladder: one op is one uncontended transaction of k
// calls at one deferred-update account under the conflict cascade, invoke
// through commit, so ns/op and allocs/op read per transaction. A view
// rebuilt by replay on every invoke and again at commit costs k(k+1)/2 + k
// spec Steps per transaction; one advanced by its own grants costs k.
//
//	go test -run '^$' -bench InvokeCommit -benchmem ./internal/locking
func BenchmarkInvokeCommit(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("calls=%d", k), func(b *testing.B) {
			o, err := New(Config{ID: "y", Type: adts.Account(), Guard: conflict.ForType(adts.Account()), Detector: NewDetector()})
			if err != nil {
				b.Fatal(err)
			}
			invs := make([]spec.Invocation, k)
			for i := range invs {
				invs[i] = spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(2)}
				if i%2 == 1 {
					invs[i] = spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(1)}
				}
			}
			a := txn("a", 1) // an id is free again once its commit lands
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, inv := range invs {
					if _, err := o.Invoke(a, inv); err != nil {
						b.Fatal(err)
					}
				}
				o.Commit(a, histories.TSNone)
			}
		})
	}
}
