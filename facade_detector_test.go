package weihl83_test

import (
	"sync"
	"testing"

	"weihl83"
)

// TestFacadeDeadlockCascadeLeavesDetectorEmpty: two hot accounts under the
// cascade guard, and every round two transactions that each read one and
// deposit into the other — after both reads are granted, a certain
// deadlock. The detector dooms one per round, Run retries it, and once
// every transaction has finished the detector holds nothing.
func TestFacadeDeadlockCascadeLeavesDetectorEmpty(t *testing.T) {
	sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []weihl83.ObjectID{"x", "y"} {
		if err := sys.AddObject(id, weihl83.Account(), weihl83.WithGuard(weihl83.GuardCascade)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 20
	for r := 0; r < rounds; r++ {
		var bothRead sync.WaitGroup
		bothRead.Add(2)
		errs := make(chan error, 2)
		for _, pair := range [][2]weihl83.ObjectID{{"x", "y"}, {"y", "x"}} {
			go func(read, write weihl83.ObjectID) {
				first := true
				errs <- sys.Run(func(t *weihl83.Txn) error {
					if _, err := t.Invoke(read, weihl83.OpBalance, weihl83.Nil()); err != nil {
						return err
					}
					if first {
						first = false
						bothRead.Done()
						bothRead.Wait()
					}
					_, err := t.Invoke(write, weihl83.OpDeposit, weihl83.Int(1))
					return err
				})
			}(pair[0], pair[1])
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	commits, aborts := sys.Stats()
	if commits != 2*rounds || aborts < rounds {
		t.Fatalf("commits/aborts = %d/%d, want %d commits and at least one deadlock victim per round", commits, aborts, 2*rounds)
	}
	if r := weihl83.DetectorResident(sys); r != 0 {
		t.Fatalf("detector resident = %d after every transaction finished, want 0", r)
	}
}
