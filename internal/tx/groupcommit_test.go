package tx

import (
	"fmt"
	"sync"
	"testing"

	"weihl83/internal/histories"
	"weihl83/internal/recovery"
)

// TestWalGroupConcurrentSubmit stresses the leadership protocol: many
// concurrent submitters, every group durably appended exactly once, each
// group's records contiguous and in order in the log. Run with -race.
func TestWalGroupConcurrentSubmit(t *testing.T) {
	g := &walGroup{disk: &recovery.Disk{}}
	const submitters = 16
	const rounds = 50
	var wg sync.WaitGroup
	errc := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := histories.ActivityID(fmt.Sprintf("t%d-%d", s, r))
				recs := []recovery.Record{
					{Kind: recovery.RecordIntentions, Txn: txn, Object: "o"},
					{Kind: recovery.RecordCommit, Txn: txn},
				}
				if err := g.submit(recs, nil); err != nil {
					errc <- fmt.Errorf("%s: %w", txn, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	recs := g.disk.Records()
	if len(recs) != submitters*rounds*2 {
		t.Fatalf("log has %d records, want %d", len(recs), submitters*rounds*2)
	}
	// Each transaction's intentions record is immediately followed by its
	// commit record: groups never interleave inside a batch.
	seen := make(map[histories.ActivityID]bool)
	for i := 0; i < len(recs); i += 2 {
		a, b := recs[i], recs[i+1]
		if a.Kind != recovery.RecordIntentions || b.Kind != recovery.RecordCommit || a.Txn != b.Txn {
			t.Fatalf("records %d,%d not a contiguous group: %+v %+v", i, i+1, a, b)
		}
		if seen[a.Txn] {
			t.Fatalf("transaction %s logged twice", a.Txn)
		}
		seen[a.Txn] = true
	}

	// The group must be idle again: no leader, empty queue.
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leading || len(g.queue) != 0 {
		t.Fatalf("walGroup not quiescent: leading=%v queue=%d", g.leading, len(g.queue))
	}
}
