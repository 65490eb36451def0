package tx_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
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
// with the installation order. Read-only auditors run beside the writers;
// their commits wait for no force, yet every audit's records must be in
// the log after the crash, and restart's redo must re-check their reads.
// It runs on the in-memory Disk, where every append completes before the
// next, and on a FileWAL, where one batch is written while the previous
// batch's fsync is still in flight and the rebuild reads the log back from
// the reopened files.
func TestCrashConsistencyUnderConcurrency(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		crashConsistencyTrials(t, func() recovery.Backend { return &recovery.Disk{} },
			func(b recovery.Backend) recovery.Backend { return b }, fault.DiskAppendTorn)
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
			}, fault.DiskWriteTorn)
	})
}

// auditTotal is what the audited accounts x and y always hold together.
const auditTotal = 100

// crashConsistencyTrials runs ten trials of the workload, each on a log
// from fresh, and rebuilds the objects from the log crash hands back. An
// eleventh trial arms torn, the backend's torn-record fault point, during
// the workload and then for one last audit whose records all tear: no
// read-only commit may fail on it, and restart must still succeed.
func crashConsistencyTrials(t *testing.T, fresh func() recovery.Backend, crash func(recovery.Backend) recovery.Backend, torn fault.Point) {
	for trial := 0; trial <= 10; trial++ {
		tearing := trial == 10
		wal := fresh()
		det := locking.NewDetector()
		m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Detector: det, WAL: wal})
		if err != nil {
			t.Fatal(err)
		}
		objects := map[histories.ObjectID]*locking.Object{}
		for _, o := range []struct {
			id    histories.ObjectID
			ty    adts.Type
			guard locking.Guard
		}{
			{"acct", adts.Account(), locking.EscrowGuard{}},
			{"queue", adts.Queue(), locking.ExactGuard{}},
			{"x", adts.Account(), locking.EscrowGuard{}},
			{"y", adts.Account(), locking.EscrowGuard{}},
		} {
			r, err := locking.New(locking.Config{ID: o.id, Type: o.ty, Guard: o.guard, Detector: det})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Register(r); err != nil {
				t.Fatal(err)
			}
			objects[o.id] = r
		}
		if err := m.Run(func(txn *tx.Txn) error {
			for _, obj := range []histories.ObjectID{"x", "y"} {
				if _, err := txn.Invoke(obj, adts.OpDeposit, value.Int(auditTotal/2)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tearing {
			inj := fault.New(int64(trial))
			inj.Enable(torn, fault.Rule{Prob: 0.2})
			wal.SetInjector(inj)
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
						if _, err := txn.Invoke("queue", adts.OpEnqueue, value.Int(int64(w))); err != nil {
							return err
						}
						from, to := histories.ObjectID("x"), histories.ObjectID("y")
						if rng.Intn(2) == 0 {
							from, to = to, from
						}
						amt := value.Int(int64(1 + rng.Intn(5)))
						res, err := txn.Invoke(from, adts.OpWithdraw, amt)
						if err != nil || res != value.Unit() {
							return err
						}
						_, err = txn.Invoke(to, adts.OpDeposit, amt)
						return err
					})
					if err != nil {
						t.Errorf("workload txn: %v", err)
					}
				}
			}()
		}
		var auditMu sync.Mutex
		var audits []histories.ActivityID
		for a := 0; a < 2; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					id, err := audit(m)
					if err != nil {
						t.Errorf("trial %d: audit: %v", trial, err)
						continue
					}
					auditMu.Lock()
					audits = append(audits, id)
					auditMu.Unlock()
				}
			}()
		}
		wg.Wait()
		var tornAudit histories.ActivityID
		if tearing {
			inj := fault.New(int64(trial))
			inj.Enable(torn, fault.Rule{Prob: 1})
			wal.SetInjector(inj)
			if tornAudit, err = audit(m); err != nil {
				t.Fatalf("trial %d: read-only commit failed on a torn record: %v", trial, err)
			}
			wal.SetInjector(nil)
		}

		wal = crash(wal)
		states, err := recovery.Restart(wal, map[histories.ObjectID]spec.SerialSpec{
			"acct":  adts.AccountSpec{},
			"queue": adts.QueueSpec{},
			"x":     adts.AccountSpec{},
			"y":     adts.AccountSpec{},
		})
		if err != nil {
			t.Fatalf("trial %d: restart: %v", trial, err)
		}
		for id, o := range objects {
			if got, want := states[id].Key(), o.Base().Key(); got != want {
				t.Fatalf("trial %d: recovered %s %s, live %s", trial, id, got, want)
			}
		}
		committed := make(map[histories.ActivityID]bool)
		for _, r := range wal.Records() {
			if r.Kind == recovery.RecordCommit {
				committed[r.Txn] = true
			}
		}
		if tearing {
			if committed[tornAudit] {
				t.Fatalf("trial %d: torn audit %s has a commit record", trial, tornAudit)
			}
			continue
		}
		for _, id := range audits {
			if !committed[id] {
				t.Fatalf("trial %d: audit %s committed but its commit record is not in the log", trial, id)
			}
		}
	}
}

// audit reads x and y in a read-only transaction and checks they hold
// auditTotal, returning the identifier of the attempt that committed.
func audit(m *tx.Manager) (histories.ActivityID, error) {
	var id histories.ActivityID
	err := m.RunReadOnly(func(txn *tx.Txn) error {
		id = txn.ID()
		var sum int64
		for _, obj := range []histories.ObjectID{"x", "y"} {
			v, err := txn.Invoke(obj, adts.OpBalance, value.Nil())
			if err != nil {
				return err
			}
			sum += v.MustInt()
		}
		if sum != auditTotal {
			return fmt.Errorf("audit %s saw x+y = %d, want %d", id, sum, auditTotal)
		}
		return nil
	})
	return id, err
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
