package hybridcc

import (
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/value"
)

// prepareDeposit runs deposit(n) as update id and prepares it with the
// given prepare floor.
func prepareDeposit(t *testing.T, o *Object, id string, seq, n int64, floor histories.Timestamp) *cc.TxnInfo {
	t.Helper()
	u := update(id, seq)
	u.PrepareFloor = floor
	if _, err := o.Invoke(u, inv(adts.OpDeposit, value.Int(n))); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(u); err != nil {
		t.Fatal(err)
	}
	return u
}

// readAsync starts a balance query by r; its result arrives on the channel.
func readAsync(t *testing.T, o *Object, r *cc.TxnInfo) <-chan value.Value {
	done := make(chan value.Value, 1)
	go func() {
		v, err := o.Invoke(r, inv(adts.OpBalance, value.Nil()))
		if err != nil {
			t.Errorf("query by %s: %v", r.ID, err)
		}
		done <- v
	}()
	return done
}

func mustBlock(t *testing.T, done <-chan value.Value) {
	t.Helper()
	select {
	case v := <-done:
		t.Fatalf("reader did not wait for the prepared update (got %v)", v)
	case <-time.After(50 * time.Millisecond):
	}
}

func mustReturn(t *testing.T, done <-chan value.Value) value.Value {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(2 * time.Second):
		t.Fatal("reader never returned")
		return value.Nil()
	}
}

// TestReaderBelowFloorSkipsPreparedUpdate: an update prepared with a floor
// above the reader's timestamp commits above it, so the reader returns at
// once with the state before the update, and records no wait.
func TestReaderBelowFloorSkipsPreparedUpdate(t *testing.T) {
	var rec testSink
	o := newAccount(t, rec.sink())
	seed := prepareDeposit(t, o, "seed", 1, 5, 1)
	commit(t, o, seed, 2)
	a := prepareDeposit(t, o, "a", 2, 7, 10)

	skipped := obsSkipped.Load()
	r := readOnly("r", 6)
	if v := mustReturn(t, readAsync(t, o, r)); v != value.Int(5) {
		t.Errorf("reader below the floor saw %v, want 5", v)
	}
	o.Commit(r, histories.TSNone)
	if _, roWaits := o.Stats(); roWaits != 0 {
		t.Errorf("reader below the floor recorded %d waits, want 0", roWaits)
	}
	if got := obsSkipped.Load() - skipped; got != 1 {
		t.Errorf("hybrid.waits_skipped moved by %d, want 1", got)
	}

	commit(t, o, a, 11)
	late := readOnly("late", 12)
	if v := mustReturn(t, readAsync(t, o, late)); v != value.Int(12) {
		t.Errorf("reader above the commit saw %v, want 12", v)
	}
	o.Commit(late, histories.TSNone)

	h := rec.history()
	if err := h.WellFormedHybrid(); err != nil {
		t.Fatalf("history not hybrid well-formed: %v\n%v", err, h)
	}
	ck := core.NewChecker()
	ck.Register("y", adts.AccountSpec{})
	if err := ck.HybridAtomic(h); err != nil {
		t.Errorf("history not hybrid atomic: %v\n%v", err, h)
	}
}

// TestReaderWaitsOnlyForFloorsBelow: with one prepared update below the
// reader's timestamp and one above it, the reader waits for the first
// alone and returns while the second is still prepared.
func TestReaderWaitsOnlyForFloorsBelow(t *testing.T) {
	o := newAccount(t, nil)
	a := prepareDeposit(t, o, "a", 1, 7, 3)
	b := prepareDeposit(t, o, "b", 2, 100, 20)
	r := readOnly("r", 10)
	done := readAsync(t, o, r)
	mustBlock(t, done)
	commit(t, o, a, 4)
	if v := mustReturn(t, done); v != value.Int(7) {
		t.Errorf("reader saw %v, want 7 (a only)", v)
	}
	o.Commit(r, histories.TSNone)
	if _, roWaits := o.Stats(); roWaits == 0 {
		t.Error("expected the reader to record a wait")
	}
	commit(t, o, b, 21)
}

// TestZeroFloorBlocksReaders: an update prepared without a floor (an object
// driven without the runtime) may commit anywhere, so it blocks every
// reader — even one its commit turns out to be above.
func TestZeroFloorBlocksReaders(t *testing.T) {
	o := newAccount(t, nil)
	a := prepareDeposit(t, o, "a", 1, 7, histories.TSNone)
	r := readOnly("r", 1)
	done := readAsync(t, o, r)
	mustBlock(t, done)
	commit(t, o, a, 5)
	if v := mustReturn(t, done); v != value.Int(0) {
		t.Errorf("reader at 1 saw %v, want 0 (a committed at 5)", v)
	}
	o.Commit(r, histories.TSNone)
}
