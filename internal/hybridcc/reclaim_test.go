package hybridcc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/clock"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// hybridBank registers n hybrid accounts, without a sink, on a hybrid
// manager over clk, and deposits 100 into each.
func hybridBank(t testing.TB, n int, clk tx.TimestampSource) (*tx.Manager, []*Object, []histories.ObjectID) {
	t.Helper()
	det := locking.NewDetector()
	m, err := tx.NewManager(tx.Config{Property: tx.Hybrid, Clock: clk, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*Object, n)
	ids := make([]histories.ObjectID, n)
	for i := range objs {
		ids[i] = histories.ObjectID(fmt.Sprintf("acct%d", i))
		o, err := New(Config{ID: ids[i], Type: adts.Account(), Guard: locking.TableGuard{Conflicts: adts.AccountConflicts}, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(o); err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	for _, id := range ids {
		deposit(t, m, id, 100)
	}
	return m, objs, ids
}

func deposit(t testing.TB, m *tx.Manager, id histories.ObjectID, n int64) {
	t.Helper()
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke(id, adts.OpDeposit, value.Int(n))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// balances reads every account in txn.
func balances(txn *tx.Txn, ids []histories.ObjectID) ([]int64, error) {
	out := make([]int64, len(ids))
	for i, id := range ids {
		v, err := txn.Invoke(id, adts.OpBalance, value.Nil())
		if err != nil {
			return nil, err
		}
		out[i] = v.MustInt()
	}
	return out, nil
}

// audit sums every account's balance in one read-only transaction.
func audit(m *tx.Manager, ids []histories.ObjectID) (int64, error) {
	var sum int64
	err := m.RunReadOnly(func(txn *tx.Txn) error {
		sum = 0
		for _, id := range ids {
			v, err := txn.Invoke(id, adts.OpBalance, value.Nil())
			if err != nil {
				return err
			}
			sum += v.MustInt()
		}
		return nil
	})
	return sum, err
}

func versionCount(o *Object) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.versions.Len()
}

// hookClock is a clock.Source whose next draw, once armed, runs a hook
// after the timestamp is drawn and before it is returned.
type hookClock struct {
	clock.Source
	hook atomic.Pointer[func()]
}

func (c *hookClock) Next() histories.Timestamp {
	ts := c.Source.Next()
	if h := c.hook.Swap(nil); h != nil {
		(*h)()
	}
	return ts
}

// TestLongLivedReaderKeepsItsSnapshot: a read-only transaction that began
// before a run of commits still reads exactly the state below its
// timestamp, and every log keeps only the newest version below the
// reader's floor and the versions above it. The commits run inside the
// reader's own timestamp draw, after the clock issued its timestamp: a
// runtime that published the floor after drawing, or a log that dropped
// the newest version below the floor, makes the reader read below what
// was reclaimed.
func TestLongLivedReaderKeepsItsSnapshot(t *testing.T) {
	const accounts, commits = 8, 40
	var clk hookClock
	m, objs, ids := hybridBank(t, accounts, &clk)
	for _, id := range ids { // a second version everywhere, to be reclaimed
		deposit(t, m, id, 10)
	}
	rng := rand.New(rand.NewSource(1))
	after := make([]int, accounts)
	hook := func() {
		for i := 0; i < commits; i++ {
			a := i % accounts // every object commits while the reader is live
			b := (a + 1 + rng.Intn(accounts-1)) % accounts
			if err := m.Run(func(txn *tx.Txn) error {
				if _, err := txn.Invoke(ids[a], adts.OpDeposit, value.Int(7)); err != nil {
					return err
				}
				_, err := txn.Invoke(ids[b], adts.OpDeposit, value.Int(3))
				return err
			}); err != nil {
				t.Error(err)
				return
			}
			after[a]++
			after[b]++
		}
	}
	clk.hook.Store(&hook)
	reader := m.BeginReadOnly()
	if clk.hook.Load() != nil {
		t.Fatal("the reader's timestamp draw did not run the commits")
	}
	got, err := balances(reader, ids)
	if err != nil {
		t.Fatalf("long-lived reader: %v", err)
	}
	for i, b := range got {
		if b != 110 {
			t.Errorf("%s: reader sees %d, want its snapshot's 110", ids[i], b)
		}
	}
	for i, o := range objs {
		if n, want := versionCount(o), 1+after[i]; n != want {
			t.Errorf("%s keeps %d versions with the reader live, want %d (the newest below its floor and %d above)", ids[i], n, want, after[i])
		}
		if err := o.Err(); err != nil {
			t.Errorf("%s: %v", ids[i], err)
		}
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		deposit(t, m, id, 1)
		if n := versionCount(objs[i]); n > 2 {
			t.Errorf("%s keeps %d versions once no reader is live, want at most 2", id, n)
		}
	}
}

// TestReclamationRace runs transfers, looping auditors and readers held
// open across many commits at once. Every read-only transaction must see
// the conserved total, no object may be asked below what it reclaimed,
// and once every reader is done one more commit per object leaves at most
// two versions.
func TestReclamationRace(t *testing.T) {
	const accounts, transfers, auditors, held = 6, 2000, 2, 3
	m, objs, ids := hybridBank(t, accounts, &clock.Source{})
	const total = 100 * accounts
	var stop, writersDone atomic.Bool
	var spanned atomic.Int64     // held readers that lived across 10 commits
	held1 := make(chan struct{}) // closed once a held reader has begun
	var heldOnce sync.Once
	commits := func() int64 { c, _ := m.Stats(); return c }
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			<-held1
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				a := rng.Intn(accounts)
				b := (a + 1 + rng.Intn(accounts-1)) % accounts
				if err := m.Run(func(txn *tx.Txn) error {
					v, err := txn.Invoke(ids[a], adts.OpWithdraw, value.Int(1))
					if err != nil || v != value.Unit() {
						return err
					}
					_, err = txn.Invoke(ids[b], adts.OpDeposit, value.Int(1))
					return err
				}); err != nil {
					report(err)
					return
				}
			}
		}(int64(w))
	}
	var readers sync.WaitGroup
	for a := 0; a < auditors; a++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if sum, err := audit(m, ids); err != nil || sum != total {
					report(fmt.Errorf("audit: sum %d, err %v", sum, err))
					return
				}
			}
		}()
	}
	for h := 0; h < held; h++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				r := m.BeginReadOnly()
				heldOnce.Do(func() { close(held1) })
				start := commits()
				first, err := balances(r, ids)
				for !writersDone.Load() && commits() < start+10 {
					runtime.Gosched()
				}
				if commits() >= start+10 {
					spanned.Add(1)
				}
				for k := 0; err == nil && k < 20; k++ {
					var again []int64
					if again, err = balances(r, ids); err == nil && fmt.Sprint(again) != fmt.Sprint(first) {
						err = fmt.Errorf("held reader's snapshot moved: %v then %v", first, again)
					}
				}
				var sum int64
				for _, b := range first {
					sum += b
				}
				if err == nil && sum != total {
					err = fmt.Errorf("held reader: sum %d", sum)
				}
				r.Abort()
				if err != nil {
					report(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	writersDone.Store(true)
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if spanned.Load() == 0 {
		t.Error("no held reader lived across 10 commits")
	}
	for i, o := range objs {
		if err := o.Err(); err != nil {
			t.Errorf("%s: %v", ids[i], err)
		}
		deposit(t, m, ids[i], 1)
		if n := versionCount(o); n > 2 {
			t.Errorf("%s keeps %d versions once no reader is live, want at most 2", ids[i], n)
		}
	}
}

// TestWarmAuditAllocs pins the allocations of a warm 64-object audit: the
// transaction and its id. Joins reuse a pooled set, the reads build no
// outcome slice and box no state, and nothing is recorded without a sink
// (71 allocations before, one outcome slice per read and the joined
// slice's growth among them; 2 after).
func TestWarmAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	m, _, ids := hybridBank(t, 64, &clock.Source{})
	if _, err := audit(m, ids); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if sum, err := audit(m, ids); err != nil || sum != 6400 {
			t.Fatalf("audit: sum %d, err %v", sum, err)
		}
	})
	if allocs > 2 {
		t.Errorf("%.1f allocations per warm 64-object audit, want at most 2", allocs)
	}
}
