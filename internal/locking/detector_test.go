package locking

import (
	"errors"
	"testing"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
)

func TestDetectorNoCycleNoDoom(t *testing.T) {
	d := NewDetector()
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Errorf("SetWaiting with no cycle doomed the waiter: %v", err)
	}
	if d.Doomed("a") != nil || d.Doomed("b") != nil {
		t.Error("doomed without a cycle")
	}
}

func TestDetectorTwoCycleVictimIsYoungest(t *testing.T) {
	d := NewDetector()
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Fatalf("a doomed: %v", err)
	}
	err := d.SetWaiting("b", 2, ids("a"))
	if !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("b (youngest) not doomed: %v", err)
	}
	if d.Doomed("a") != nil {
		t.Error("oldest transaction doomed")
	}
}

func TestDetectorThreeCycle(t *testing.T) {
	d := NewDetector()
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Fatal(err)
	}
	if err := d.SetWaiting("b", 2, ids("c")); err != nil {
		t.Fatal(err)
	}
	// Closing the cycle dooms c (youngest), even though c is the waiter.
	err := d.SetWaiting("c", 3, ids("a"))
	if !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("cycle not detected: %v", err)
	}
	if d.Doomed("a") != nil || d.Doomed("b") != nil {
		t.Error("non-victims doomed")
	}
}

func TestDetectorVictimElsewhereInCycle(t *testing.T) {
	d := NewDetector()
	if err := d.SetWaiting("b", 9, ids("a")); err != nil { // b is the youngest
		t.Fatal(err)
	}
	// a closes the cycle; the victim must be b, not the waiter a.
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Fatalf("waiter doomed although it is the oldest: %v", err)
	}
	if !errors.Is(d.Doomed("b"), cc.ErrDeadlock) {
		t.Error("youngest not doomed")
	}
}

// TestDetectorWakeOnDoom: the wake hooks fire once per victim, with the
// victim's id, and never without a doom.
func TestDetectorWakeOnDoom(t *testing.T) {
	d := NewDetector()
	var woken []histories.ActivityID
	d.RegisterWake(func(txn histories.ActivityID) { woken = append(woken, txn) })
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Fatal(err)
	}
	if len(woken) != 0 {
		t.Errorf("wake fired without a doom: %v", woken)
	}
	if err := d.SetWaiting("c", 3, ids("a")); err != nil {
		t.Fatal(err)
	}
	// b waits for c, closing a→b→c→a: c, the youngest, is the victim.
	if err := d.SetWaiting("b", 2, ids("c")); err != nil {
		t.Fatalf("non-victim waiter doomed: %v", err)
	}
	if len(woken) != 1 || woken[0] != "c" {
		t.Errorf("woken = %v, want exactly [c]", woken)
	}
}

// TestDetectorForgetClears: Forget drops a victim's doom and every other
// trace of it.
func TestDetectorForgetClears(t *testing.T) {
	d := NewDetector()
	_ = d.SetWaiting("a", 1, ids("b"))
	if err := d.SetWaiting("b", 2, ids("a")); !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("b not doomed: %v", err)
	}
	d.Forget("b")
	if d.Doomed("b") != nil {
		t.Error("Forget did not clear doom")
	}
	d.Forget("a")
	assertDetectorEmpty(t, d)
}

func TestDetectorDoomedEdgesIgnored(t *testing.T) {
	d := NewDetector()
	_ = d.SetWaiting("c", 1, ids("b"))
	if err := d.SetWaiting("b", 3, ids("c")); !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("b not doomed: %v", err)
	}
	// The doomed b "waits" again, now for a — but b's edges are dead.
	if err := d.SetWaiting("b", 3, ids("a")); !errors.Is(err, cc.ErrDeadlock) {
		t.Errorf("doomed waiter SetWaiting = %v", err)
	}
	if err := d.SetWaiting("a", 2, ids("b")); err != nil {
		t.Errorf("cycle through doomed transaction treated as live: %v", err)
	}
}

// TestDetectorResidentOnlyWaiters: a transaction enters the detector only
// by waiting; queries about transactions that never waited leave it empty,
// and Forget of the last resident empties it again.
func TestDetectorResidentOnlyWaiters(t *testing.T) {
	d := NewDetector()
	for _, txn := range ids("a", "b") {
		if d.Doomed(txn) != nil {
			t.Fatalf("%s doomed in an empty detector", txn)
		}
		d.ClearWaiting(txn)
		d.Forget(txn)
	}
	assertDetectorEmpty(t, d)
	if err := d.SetWaiting("a", 1, ids("b")); err != nil {
		t.Fatal(err)
	}
	if got := d.Resident(); got != 1 {
		t.Fatalf("resident after one wait = %d, want 1 (holders are not resident)", got)
	}
	d.ClearWaiting("a")
	if got := d.Resident(); got != 1 {
		t.Fatalf("resident after ClearWaiting = %d, want 1 until Forget", got)
	}
	d.Forget("b") // never waited: a no-op
	if got := d.Resident(); got != 1 {
		t.Fatalf("resident after forgetting a non-resident = %d, want 1", got)
	}
	d.Forget("a")
	assertDetectorEmpty(t, d)
}

// assertDetectorEmpty checks that d holds no state at all and that its
// resident count agrees.
func assertDetectorEmpty(t *testing.T, d *Detector) {
	t.Helper()
	d.mu.Lock()
	waits, seqs, doomed := len(d.waits), len(d.seq), len(d.doomed)
	d.mu.Unlock()
	if r := d.Resident(); r != 0 || waits != 0 || seqs != 0 || doomed != 0 {
		t.Fatalf("detector not empty: resident=%d waits=%d seq=%d doomed=%d", r, waits, seqs, doomed)
	}
}

// ids builds an ActivityID slice from string literals.
func ids(ss ...string) []histories.ActivityID {
	out := make([]histories.ActivityID, len(ss))
	for i, s := range ss {
		out[i] = histories.ActivityID(s)
	}
	return out
}
