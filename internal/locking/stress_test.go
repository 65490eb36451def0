package locking

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/conflict"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// stressGuardCase runs a randomized concurrent workload against a single
// object under the given guard, records the history, and verifies with the
// offline checker that it is dynamic atomic — the end-to-end validation of
// Theorem 1 for the locking protocol family.
func stressGuardCase(t *testing.T, name string, ty adts.Type, mkGuard func() Guard, genOp func(rng *rand.Rand) spec.Invocation, workers, opsPer int) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		var rec testSink
		det := NewDetector()
		o, err := New(Config{
			ID:       "x",
			Type:     ty,
			Guard:    mkGuard(),
			Detector: det,
			Sink:     rec.sink(),
		})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var seq int64
		var seqMu sync.Mutex
		nextTxn := func(worker int) *cc.TxnInfo {
			seqMu.Lock()
			defer seqMu.Unlock()
			seq++
			return &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("w%d.%d", worker, seq)), Seq: seq}
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for k := 0; k < opsPer; k++ {
					tx := nextTxn(w)
					nOps := 1 + rng.Intn(3)
					aborted := false
					for i := 0; i < nOps; i++ {
						if _, err := o.Invoke(tx, genOp(rng)); err != nil {
							if !cc.Retryable(err) && !errors.Is(err, cc.ErrInvalidOp) {
								t.Errorf("unexpected invoke error: %v", err)
							}
							o.Abort(tx)
							aborted = true
							break
						}
					}
					if aborted {
						det.Forget(tx.ID)
						continue
					}
					if rng.Intn(5) == 0 {
						o.Abort(tx) // voluntary abort: recoverability exercised
					} else {
						o.Commit(tx, histories.TSNone)
					}
					det.Forget(tx.ID)
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("stress workload hung")
		}

		if err := o.Err(); err != nil {
			t.Fatalf("object corrupted: %v", err)
		}
		assertDetectorEmpty(t, det)
		h := rec.history()
		if err := h.WellFormed(); err != nil {
			t.Fatalf("recorded history ill-formed: %v", err)
		}
		ck := core.NewChecker()
		ck.Register("x", ty.Spec)
		if err := ck.DynamicAtomic(h); err != nil {
			t.Fatalf("recorded history not dynamic atomic: %v\n%v", err, h)
		}
	})
}

func TestStressDynamicAtomicity(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	accountOps := func(rng *rand.Rand) spec.Invocation {
		switch rng.Intn(4) {
		case 0:
			return spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(int64(1 + rng.Intn(5)))}
		case 1, 2:
			return spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(int64(1 + rng.Intn(5)))}
		default:
			return spec.Invocation{Op: adts.OpBalance}
		}
	}
	setOps := func(rng *rand.Rand) spec.Invocation {
		n := value.Int(int64(rng.Intn(4)))
		switch rng.Intn(3) {
		case 0:
			return spec.Invocation{Op: adts.OpInsert, Arg: n}
		case 1:
			return spec.Invocation{Op: adts.OpDelete, Arg: n}
		default:
			return spec.Invocation{Op: adts.OpMember, Arg: n}
		}
	}
	queueOps := func(rng *rand.Rand) spec.Invocation {
		if rng.Intn(3) == 0 {
			return spec.Invocation{Op: adts.OpDequeue}
		}
		return spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(int64(rng.Intn(3)))}
	}

	// Small transaction counts keep the exact offline check tractable (it
	// explores linear extensions of precedes over every committed txn).
	stressGuardCase(t, "account/escrow", adts.Account(), func() Guard { return EscrowGuard{} }, accountOps, 4, 4)
	stressGuardCase(t, "account/exact", adts.Account(), func() Guard { return ExactGuard{} }, accountOps, 4, 4)
	stressGuardCase(t, "account/table", adts.Account(), func() Guard { return TableGuard{Conflicts: adts.AccountConflicts} }, accountOps, 4, 4)
	stressGuardCase(t, "account/rw", adts.Account(), func() Guard { return RWGuard{IsWrite: adts.AccountIsWrite} }, accountOps, 4, 4)
	stressGuardCase(t, "intset/table", adts.IntSet(), func() Guard { return TableGuard{Conflicts: adts.IntSetConflicts} }, setOps, 4, 4)
	stressGuardCase(t, "intset/exact", adts.IntSet(), func() Guard { return ExactGuard{} }, setOps, 4, 4)
	stressGuardCase(t, "queue/exact", adts.Queue(), func() Guard { return ExactGuard{} }, queueOps, 3, 4)
	stressGuardCase(t, "queue/table", adts.Queue(), func() Guard { return TableGuard{Conflicts: adts.QueueConflicts} }, queueOps, 3, 4)
	// The tiered cascade must produce dynamic-atomic histories on every
	// type, exactly like the raw exact guard it subsumes.
	stressGuardCase(t, "account/cascade", adts.Account(), func() Guard { return conflict.ForType(adts.Account()) }, accountOps, 4, 4)
	stressGuardCase(t, "intset/cascade", adts.IntSet(), func() Guard { return conflict.ForType(adts.IntSet()) }, setOps, 4, 4)
	stressGuardCase(t, "queue/cascade", adts.Queue(), func() Guard { return conflict.ForType(adts.Queue()) }, queueOps, 3, 4)
}
