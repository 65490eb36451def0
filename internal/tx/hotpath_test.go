package tx_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// TestSinkStableIdentity: Sink returns the same sink every call, so an
// object wired up at any time feeds the same recorder as every other
// (the old implementation minted a fresh closure per call).
func TestSinkStableIdentity(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	s1, s2 := m.Sink(), m.Sink()
	if reflect.ValueOf(s1).Pointer() != reflect.ValueOf(s2).Pointer() {
		t.Fatal("Sink() returned distinct sinks on consecutive calls")
	}
	// A sink captured before any traffic records into the same history the
	// manager serves.
	s1.Emit(histories.Invoke("acct1", "tX", adts.OpDeposit, value.Int(1)))
	found := false
	for _, e := range m.History() {
		if e.Activity == "tX" {
			found = true
		}
	}
	if !found {
		t.Fatal("event emitted through an early-captured sink missing from History")
	}
}

// TestRegisterAfterWorkersStart: it is safe to Register a new resource
// while worker transactions are invoking concurrently; in-flight and
// subsequent transactions all commit and the
// new object is immediately usable. Run with -race.
func TestRegisterAfterWorkersStart(t *testing.T) {
	det := locking.NewDetector()
	m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Detector: det, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id histories.ObjectID) cc.Resource {
		o, err := locking.New(locking.Config{
			ID: id, Type: adts.Account(), Guard: locking.EscrowGuard{},
			Detector: det, Sink: m.Sink(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	if err := m.Register(mk("acct0")); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 200
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				err := m.Run(func(txn *tx.Txn) error {
					_, err := txn.Invoke("acct0", adts.OpDeposit, value.Int(1))
					return err
				})
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	close(start)
	// Register new objects while the workers hammer acct0.
	for i := 1; i <= 8; i++ {
		if err := m.Register(mk(histories.ObjectID(fmt.Sprintf("acct%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	// The most recently registered object is immediately invokable.
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct8", adts.OpDeposit, value.Int(5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestMergedHistoryWellFormed: the history merged from the sharded
// recorder under a concurrent workload is a legal well-formed
// interleaving — per-activity event order survives the shard merge.
func TestMergedHistoryWellFormed(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = m.Run(func(txn *tx.Txn) error {
					if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1)); err != nil {
						return err
					}
					_, err := txn.Invoke("acct2", adts.OpDeposit, value.Int(1))
					return err
				})
			}
		}(w)
	}
	wg.Wait()
	h := m.History()
	if len(h) == 0 {
		t.Fatal("no history recorded")
	}
	if err := h.WellFormed(); err != nil {
		t.Fatalf("merged history ill-formed: %v", err)
	}
}

// TestGroupCommitDiskFailFailsOnlyFaultedTxn: a clean append failure in
// the group-commit path aborts only the transaction whose record faulted;
// a subsequent commit succeeds and restart replays exactly the durable one.
func TestGroupCommitDiskFailFailsOnlyFaultedTxn(t *testing.T) {
	disk := &recovery.Disk{}
	inj := fault.New(3)
	inj.Enable(fault.DiskAppendFail, fault.Rule{Prob: 1, Limit: 1})
	disk.SetInjector(inj)
	m, _ := newDynamicSystem(t, disk)

	t1 := m.Begin()
	if _, err := t1.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	err := t1.Commit()
	if err == nil {
		t.Fatal("commit with a failed log append reported success")
	}
	if !errors.Is(err, cc.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}

	t2 := m.Begin()
	if _, err := t2.Invoke("acct1", adts.OpDeposit, value.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	states, err := recovery.Restart(disk, dynamicSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["acct1"].(adts.AccountState).Balance(); got != 7 {
		t.Errorf("restart balance %d, want 7 (the faulted deposit must not replay)", got)
	}
}

// dynamicSpecs mirrors newDynamicSystem's object population for Restart.
func dynamicSpecs() map[histories.ObjectID]spec.SerialSpec {
	return map[histories.ObjectID]spec.SerialSpec{
		"acct1": adts.AccountSpec{},
		"acct2": adts.AccountSpec{},
		"set":   adts.IntSetSpec{},
	}
}

// TestGroupCommitDiskTornFailsOnlyFaultedTxn is the torn-write variant:
// the half-written intentions record is discarded at restart and the
// faulted transaction appears never to have run.
func TestGroupCommitDiskTornFailsOnlyFaultedTxn(t *testing.T) {
	disk := &recovery.Disk{}
	inj := fault.New(3)
	inj.Enable(fault.DiskAppendTorn, fault.Rule{Prob: 1, Limit: 1})
	disk.SetInjector(inj)
	m, _ := newDynamicSystem(t, disk)

	t1 := m.Begin()
	if _, err := t1.Invoke("acct1", adts.OpDeposit, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err == nil {
		t.Fatal("commit with a torn log append reported success")
	}

	t2 := m.Begin()
	if _, err := t2.Invoke("acct1", adts.OpDeposit, value.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	states, err := recovery.Restart(disk, dynamicSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["acct1"].(adts.AccountState).Balance(); got != 7 {
		t.Errorf("restart balance %d, want 7 (the torn deposit must not replay)", got)
	}
}

// TestGroupCommitConcurrentCommitsDurable: many transactions committing
// concurrently through the group-commit path all end up durable, whatever
// batching the leadership protocol chose. Run with -race.
func TestGroupCommitConcurrentCommitsDurable(t *testing.T) {
	disk := &recovery.Disk{}
	m, _ := newDynamicSystem(t, disk)
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := m.Run(func(txn *tx.Txn) error {
					_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
					return err
				}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Every commit wrote an intentions record and a commit record.
	var commits int
	for _, r := range disk.Records() {
		if r.Kind == recovery.RecordCommit {
			commits++
		}
	}
	if commits != workers*perWorker {
		t.Fatalf("%d durable commit records, want %d", commits, workers*perWorker)
	}
}

// TestPacerMatchesBackoffPolicy: Pacer delays follow the manager's capped
// exponential equal-jitter policy and are reproducible per seed.
func TestPacerMatchesBackoffPolicy(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		var got []time.Duration
		m, err := tx.NewManager(tx.Config{
			Property: tx.Dynamic,
			Detector: locking.NewDetector(),
			Backoff: tx.Backoff{
				Base: time.Millisecond, Max: 8 * time.Millisecond, Seed: seed,
				Sleep: func(ctx context.Context, d time.Duration) error {
					got = append(got, d)
					return nil
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		p := m.NewPacer()
		for retry := 0; retry < 6; retry++ {
			if err := p.Pause(context.Background(), retry); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	a, b := delays(11), delays(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different delay sequences:\n%v\n%v", a, b)
	}
	for retry, d := range a {
		ceil := time.Millisecond << retry
		if ceil > 8*time.Millisecond {
			ceil = 8 * time.Millisecond
		}
		if d < ceil/2 || d > ceil {
			t.Fatalf("retry %d delay %v outside [%v, %v]", retry, d, ceil/2, ceil)
		}
	}
}
