package tx_test

import (
	"fmt"
	"testing"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// countingResource counts the calls of each kind it receives.
type countingResource struct {
	id                                 histories.ObjectID
	invokes, prepares, commits, aborts int
}

func (r *countingResource) ObjectID() histories.ObjectID { return r.id }
func (r *countingResource) Invoke(*cc.TxnInfo, spec.Invocation) (value.Value, error) {
	r.invokes++
	return value.Unit(), nil
}
func (r *countingResource) Prepare(*cc.TxnInfo) error               { r.prepares++; return nil }
func (r *countingResource) Commit(*cc.TxnInfo, histories.Timestamp) { r.commits++ }
func (r *countingResource) Abort(*cc.TxnInfo)                       { r.aborts++ }

// TestRepeatedInvokesJoinOnce: a transaction over 64 objects that invokes
// each of them several times, in an order that revisits objects after
// others joined, prepares and commits every object exactly once; so does
// the next transaction, which reuses the first one's join set, and an
// aborted one aborts each object once.
func TestRepeatedInvokesJoinOnce(t *testing.T) {
	m, err := tx.NewManager(tx.Config{Property: tx.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	rs := make([]*countingResource, n)
	for i := range rs {
		rs[i] = &countingResource{id: histories.ObjectID(fmt.Sprintf("o%d", i))}
		if err := m.Register(rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	run := func(round int, commit bool) {
		txn := m.Begin()
		for pass := 0; pass < 3; pass++ {
			for k := 0; k < n; k++ {
				// Strided orders: each pass visits every object once.
				i := (k*(2*pass+1) + round) % n
				if _, err := txn.Invoke(rs[i].id, "op", value.Nil()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if commit {
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			txn.Abort()
		}
	}
	for round, commit := range []bool{true, true, false} {
		run(round, commit)
		for _, r := range rs {
			wantDone := 1
			if round == 2 {
				wantDone = 0
			}
			if r.prepares != wantDone || r.commits != wantDone || r.aborts != 1-wantDone || r.invokes != 3 {
				t.Fatalf("round %d: %s saw %d invokes, %d prepares, %d commits, %d aborts; want 3, %d, %d, %d",
					round, r.id, r.invokes, r.prepares, r.commits, r.aborts, wantDone, wantDone, 1-wantDone)
			}
			*r = countingResource{id: r.id}
		}
	}
}
