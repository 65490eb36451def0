package weihl83_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"weihl83"
)

// TestHybridHeapFlatUnderAudits: a hybrid system keeps only the versions a
// live or future snapshot can read, so with one reader looping audits the
// heap retained after a collection at 200k commits is within 20% of its
// value at 20k. Without reclamation every commit leaves a version behind.
func TestHybridHeapFlatUnderAudits(t *testing.T) {
	const accounts = 16
	sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]weihl83.ObjectID, accounts)
	for i := range ids {
		ids[i] = weihl83.ObjectID(fmt.Sprintf("acct%d", i))
		if err := sys.AddObject(ids[i], weihl83.Account()); err != nil {
			t.Fatal(err)
		}
	}
	// The auditor holds gate shared for each audit; measuring takes it
	// exclusively, so no audit is in flight while the heap is read.
	var gate sync.RWMutex
	var stop atomic.Bool
	audits := make(chan error, 1)
	go func() {
		var n int64
		for !stop.Load() {
			gate.RLock()
			err := sys.RunReadOnly(func(txn *weihl83.Txn) error {
				for _, id := range ids {
					if _, err := txn.Invoke(id, weihl83.OpBalance, weihl83.Nil()); err != nil {
						return err
					}
				}
				return nil
			})
			gate.RUnlock()
			if err != nil {
				audits <- err
				return
			}
			n++
		}
		if n == 0 {
			audits <- fmt.Errorf("no audit ran")
		}
		audits <- nil
	}()
	deposit := func(a, b weihl83.ObjectID) {
		if err := sys.Run(func(txn *weihl83.Txn) error {
			if _, err := txn.Invoke(a, weihl83.OpDeposit, weihl83.Int(1)); err != nil {
				return err
			}
			_, err := txn.Invoke(b, weihl83.OpDeposit, weihl83.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A log keeps every version from the oldest live snapshot on, so its
	// length at any moment follows the longest recent audit (a descheduled
	// auditor holds the floor for thousands of commits), not the run's
	// length. With the auditor paused, one commit at every object reclaims
	// each log to its steady state before the heap is read.
	retained := func() uint64 {
		gate.Lock()
		defer gate.Unlock()
		for i := range ids {
			deposit(ids[i], ids[(i+1)%accounts])
		}
		runtime.GC()
		runtime.GC() // the second collection also empties the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at20k, at200k uint64
	for i := 1; i <= 200_000; i++ {
		deposit(ids[i%accounts], ids[(i+1)%accounts])
		switch i {
		case 20_000:
			at20k = retained()
		case 200_000:
			at200k = retained()
		}
	}
	stop.Store(true)
	if err := <-audits; err != nil {
		t.Fatal(err)
	}
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("retained heap: %d B at 20k commits, %d B at 200k", at20k, at200k)
	if float64(at200k) > 1.2*float64(at20k) {
		t.Errorf("retained heap grew from %d B at 20k commits to %d B at 200k, more than 20%%", at20k, at200k)
	}
}
