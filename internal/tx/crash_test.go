package tx_test

import (
	"math/rand"
	"sync"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// TestCrashConsistencyUnderConcurrency is a crash-consistency property
// test: run a concurrent workload with a write-ahead log, then "crash" and
// rebuild every object from the log alone. The recovered state must match
// the live committed state exactly — including for objects whose
// concurrent blocks do not commute state-wise (the exact-guard queue),
// which requires the runtime to keep the log's commit order consistent
// with the installation order. It runs on the in-memory Disk, where every
// append completes before the next, and on a FileWAL, where one batch is
// written while the previous batch's fsync is still in flight and the
// rebuild reads the log back from the reopened files.
func TestCrashConsistencyUnderConcurrency(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		crashConsistencyTrials(t, func() recovery.Backend { return &recovery.Disk{} },
			func(b recovery.Backend) recovery.Backend { return b })
	})
	t.Run("filewal", func(t *testing.T) {
		open := func(dir string) recovery.Backend {
			w, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			return w
		}
		crashConsistencyTrials(t, func() recovery.Backend { return open(t.TempDir()) },
			func(b recovery.Backend) recovery.Backend {
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				return open(b.(*recovery.FileWAL).Dir())
			})
	})
}

// crashConsistencyTrials runs ten trials of the workload, each on a log
// from fresh, and rebuilds the objects from the log crash hands back.
func crashConsistencyTrials(t *testing.T, fresh func() recovery.Backend, crash func(recovery.Backend) recovery.Backend) {
	for trial := 0; trial < 10; trial++ {
		wal := fresh()
		det := locking.NewDetector()
		m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Detector: det, WAL: wal})
		if err != nil {
			t.Fatal(err)
		}
		acct, err := locking.New(locking.Config{
			ID: "acct", Type: adts.Account(), Guard: locking.EscrowGuard{}, Detector: det,
		})
		if err != nil {
			t.Fatal(err)
		}
		queue, err := locking.New(locking.Config{
			ID: "queue", Type: adts.Queue(), Guard: locking.ExactGuard{}, Detector: det,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*locking.Object{acct, queue} {
			if err := m.Register(r); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*10 + w)))
				for k := 0; k < 5; k++ {
					err := m.Run(func(txn *tx.Txn) error {
						if rng.Intn(2) == 0 {
							if _, err := txn.Invoke("acct", adts.OpDeposit, value.Int(int64(1+rng.Intn(5)))); err != nil {
								return err
							}
						}
						_, err := txn.Invoke("queue", adts.OpEnqueue, value.Int(int64(w)))
						return err
					})
					if err != nil {
						t.Errorf("workload txn: %v", err)
					}
				}
			}()
		}
		wg.Wait()

		states, err := recovery.Restart(crash(wal), map[histories.ObjectID]spec.SerialSpec{
			"acct":  adts.AccountSpec{},
			"queue": adts.QueueSpec{},
		})
		if err != nil {
			t.Fatalf("trial %d: restart: %v", trial, err)
		}
		if got, want := states["acct"].Key(), acct.Base().Key(); got != want {
			t.Fatalf("trial %d: recovered acct %s, live %s", trial, got, want)
		}
		if got, want := states["queue"].Key(), queue.Base().Key(); got != want {
			t.Fatalf("trial %d: recovered queue %s, live %s", trial, got, want)
		}
	}
}

// TestCrashConsistencyNames documents the queue contents explicitly on one
// deterministic run, so a regression prints something legible.
func TestCrashConsistencyDeterministic(t *testing.T) {
	disk := &recovery.Disk{}
	m, _ := newDynamicSystem(t, disk)
	for i := 0; i < 3; i++ {
		i := i
		if err := m.Run(func(txn *tx.Txn) error {
			_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(int64(10*(i+1))))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	states, err := recovery.Restart(disk, map[histories.ObjectID]spec.SerialSpec{
		"acct1": adts.AccountSpec{},
		"acct2": adts.AccountSpec{},
		"set":   adts.IntSetSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if states["acct1"].Key() != "60" {
		t.Errorf("recovered %s, want 60", states["acct1"].Key())
	}
}
