package tx

import (
	"sync/atomic"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/value"
)

// TestCommitClockReads pins how often a transaction reads the latency
// clock from Begin through Commit: four times in memory (begin, prepare
// start and end, install end), five when a WAL write sits between the
// prepare and the install, and twice when nothing was joined.
func TestCommitClockReads(t *testing.T) {
	var reads atomic.Int64
	orig := nanotime
	nanotime = func() int64 { reads.Add(1); return orig() }
	defer func() { nanotime = orig }()
	for _, c := range []struct {
		name    string
		wal     recovery.Backend
		objects int
		want    int64
	}{
		{"in-memory", nil, 2, 4},
		{"wal", &recovery.Disk{}, 2, 5},
		{"no-objects", nil, 0, 2},
	} {
		m, err := NewManager(Config{Property: Dynamic, WAL: c.wal})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			o, err := locking.New(locking.Config{ID: histories.ObjectID(id), Type: adts.Account(), Guard: locking.TableGuard{Conflicts: adts.AccountConflicts}, WaitTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Register(o); err != nil {
				t.Fatal(err)
			}
		}
		reads.Store(0)
		txn := m.Begin()
		for _, id := range []string{"a", "b"}[:c.objects] {
			if _, err := txn.Invoke(histories.ObjectID(id), adts.OpDeposit, value.Int(1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := reads.Load(); got != c.want {
			t.Errorf("%s: a commit read the clock %d times, want %d", c.name, got, c.want)
		}
	}
}
