package locking

import (
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// TestSemiQueueConcurrentDequeues shows nondeterminism buying concurrency
// (the paper's §1 citation of [Weihl & Liskov 83]): under the exact guard,
// two transactions dequeue from a two-element semiqueue CONCURRENTLY — the
// object resolves the nondeterminism by handing them different elements.
// The same workload on a FIFO queue blocks the second dequeuer.
func TestSemiQueueConcurrentDequeues(t *testing.T) {
	var rec testSink
	det := NewDetector()
	o, err := New(Config{
		ID:       "sq",
		Type:     adts.SemiQueue(),
		Guard:    ExactGuard{},
		Detector: det,
		Sink:     rec.sink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := txn("seed", 0)
	mustInvoke(t, o, seed, adts.OpEnqueue, value.Int(1))
	mustInvoke(t, o, seed, adts.OpEnqueue, value.Int(2))
	o.Commit(seed, histories.TSNone)

	// Both dequeue without either committing: neither blocks.
	a, b := txn("a", 1), txn("b", 2)
	va := mustInvoke(t, o, a, adts.OpDequeue, value.Nil())
	vb := mustInvoke(t, o, b, adts.OpDequeue, value.Nil())
	if va == vb {
		t.Fatalf("both dequeues took %v; the object must choose different elements", va)
	}
	o.Commit(b, histories.TSNone)
	o.Commit(a, histories.TSNone)

	ck := core.NewChecker()
	ck.Register("sq", adts.SemiQueueSpec{})
	if err := ck.DynamicAtomic(rec.history()); err != nil {
		t.Errorf("semiqueue history not dynamic atomic: %v", err)
	}
	if err := o.Err(); err != nil {
		t.Errorf("object corrupted: %v", err)
	}
}

// TestSemiQueueLastElementStillConflicts: with a single element, the
// second dequeuer must wait (exactly the escrow-like state dependence).
func TestSemiQueueLastElementStillConflicts(t *testing.T) {
	det := NewDetector()
	o, err := New(Config{
		ID:       "sq",
		Type:     adts.SemiQueue(),
		Guard:    ExactGuard{},
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := txn("seed", 0)
	mustInvoke(t, o, seed, adts.OpEnqueue, value.Int(7))
	o.Commit(seed, histories.TSNone)

	a, b := txn("a", 1), txn("b", 2)
	if got := mustInvoke(t, o, a, adts.OpDequeue, value.Nil()); got != value.Int(7) {
		t.Fatalf("a dequeued %v", got)
	}
	done := make(chan value.Value, 1)
	go func() {
		v, err := o.Invoke(b, spec.Invocation{Op: adts.OpDequeue})
		if err != nil {
			done <- value.Str(err.Error())
			return
		}
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("b's dequeue was not blocked (got %v)", v)
	case <-time.After(50 * time.Millisecond):
	}
	// Once a aborts, the element is available again and b gets it.
	o.Abort(a)
	select {
	case v := <-done:
		if v != value.Int(7) {
			t.Errorf("b dequeued %v after a's abort", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b never unblocked")
	}
	o.Commit(b, histories.TSNone)
}

// TestSemiQueueFIFOContrast: the same two-dequeuer scenario on a FIFO
// queue blocks, because both dequeues must return the unique front element.
func TestSemiQueueFIFOContrast(t *testing.T) {
	det := NewDetector()
	o, err := New(Config{
		ID:       "q",
		Type:     adts.Queue(),
		Guard:    ExactGuard{},
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := txn("seed", 0)
	mustInvoke(t, o, seed, adts.OpEnqueue, value.Int(1))
	mustInvoke(t, o, seed, adts.OpEnqueue, value.Int(2))
	o.Commit(seed, histories.TSNone)

	a, b := txn("a", 1), txn("b", 2)
	mustInvoke(t, o, a, adts.OpDequeue, value.Nil())
	done := make(chan struct{})
	go func() {
		_, _ = o.Invoke(b, spec.Invocation{Op: adts.OpDequeue})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("FIFO dequeue was not blocked; the semiqueue comparison is vacuous")
	case <-time.After(50 * time.Millisecond):
	}
	o.Commit(a, histories.TSNone)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("b never unblocked")
	}
	o.Commit(b, histories.TSNone)
}
