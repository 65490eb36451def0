package ccrt_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/ccrt"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// TestReplayMatchesRecordedResults: Replay follows the recorded resolution
// of each call and rejects unachievable results.
func TestReplayMatchesRecordedResults(t *testing.T) {
	s := adts.CounterSpec{}
	calls := []spec.Call{
		{Inv: spec.Invocation{Op: adts.OpIncrement, Arg: value.Nil()}, Result: value.Int(1)},
		{Inv: spec.Invocation{Op: adts.OpIncrement, Arg: value.Nil()}, Result: value.Int(2)},
		{Inv: spec.Invocation{Op: adts.OpRead, Arg: value.Nil()}, Result: value.Int(2)},
	}
	st, err := ccrt.Replay(s.Init(), calls)
	if err != nil {
		t.Fatalf("Replay = %v", err)
	}
	if st.Key() != "2" {
		t.Fatalf("replayed state %s, want 2", st.Key())
	}
	bad := []spec.Call{{Inv: spec.Invocation{Op: adts.OpRead, Arg: value.Nil()}, Result: value.Int(99)}}
	if _, err := ccrt.Replay(s.Init(), bad); err == nil {
		t.Fatal("Replay accepted an unachievable recorded result")
	}
}

// TestSemiQueueReplayPicksMatchingOutcome: for a nondeterministic
// operation, StepMatching selects the outcome the object actually chose,
// not just the first one offered.
func TestSemiQueueReplayPicksMatchingOutcome(t *testing.T) {
	s := adts.SemiQueueSpec{}
	st := s.Init()
	var err error
	for _, v := range []int64{10, 20} {
		st, err = ccrt.StepMatching(st, spec.Call{
			Inv:    spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(v)},
			Result: value.Unit(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A semiqueue dequeue may return either element; replay the recording
	// that chose the second.
	st2, err := ccrt.StepMatching(st, spec.Call{
		Inv:    spec.Invocation{Op: adts.OpDequeue, Arg: value.Nil()},
		Result: value.Int(20),
	})
	if err != nil {
		t.Fatalf("StepMatching(dequeue→20) = %v", err)
	}
	// The remaining element must be 10.
	if _, err := ccrt.StepMatching(st2, spec.Call{
		Inv:    spec.Invocation{Op: adts.OpDequeue, Arg: value.Nil()},
		Result: value.Int(10),
	}); err != nil {
		t.Fatalf("second dequeue after matched replay = %v", err)
	}
}

// TestRecorderConcurrentEmitHistory is the -race stress for the sharded
// recorder: concurrent emitters interleaved with History() readers. Each
// emitter's own events must appear in its emission order in every merged
// history, and the final history must contain every event exactly once.
func TestRecorderConcurrentEmitHistory(t *testing.T) {
	r := ccrt.NewRecorder()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: merged snapshots must always be per-activity
	// ordered even while emitters are running.
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := r.History()
				if err := perActivityOrdered(h, perWorker); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := histories.ActivityID(fmt.Sprintf("t%d", w))
			for i := 0; i < perWorker; i++ {
				// Arg encodes the per-worker sequence so order is checkable.
				r.Emit(histories.Invoke("x", a, "op", value.Int(int64(i))))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	h := r.History()
	if len(h) != workers*perWorker {
		t.Fatalf("merged history has %d events, want %d", len(h), workers*perWorker)
	}
	if r.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", r.Len(), workers*perWorker)
	}
	if err := perActivityOrdered(h, perWorker); err != nil {
		t.Fatal(err)
	}
}

// perActivityOrdered checks each activity's events appear in ascending
// per-worker sequence (the emission order of that goroutine).
func perActivityOrdered(h histories.History, perWorker int) error {
	next := make(map[histories.ActivityID]int64)
	for _, e := range h {
		want := next[e.Activity]
		got := e.Arg.MustInt()
		if got != want {
			return fmt.Errorf("activity %s: event %d arrived before %d", e.Activity, got, want)
		}
		next[e.Activity] = want + 1
	}
	return nil
}

// TestSequencerOrdersInstalls: Wait admits ticket holders strictly in
// reservation order, and ReserveWith runs its closure atomically with the
// draw.
func TestSequencerOrdersInstalls(t *testing.T) {
	var s ccrt.Sequencer
	const n = 32
	type draw struct {
		ticket ccrt.Ticket
		ts     int64
	}
	var clockMu sync.Mutex
	var clock int64
	draws := make([]draw, n)
	var wg sync.WaitGroup
	var orderMu sync.Mutex
	var order []int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var d draw
			d.ticket = s.ReserveWith(func() {
				clockMu.Lock()
				clock++
				d.ts = clock
				clockMu.Unlock()
			})
			draws[i] = d
			s.Wait(d.ticket)
			orderMu.Lock()
			order = append(order, d.ts)
			orderMu.Unlock()
			s.Done(d.ticket)
		}(i)
	}
	wg.Wait()
	if len(order) != n {
		t.Fatalf("%d installs, want %d", len(order), n)
	}
	for i, ts := range order {
		if ts != int64(i+1) {
			t.Fatalf("install %d has timestamp %d: installs not in timestamp order %v", i, ts, order)
		}
	}
}

// TestSequencerAbandonUnblocksSuccessors: abandoning a reserved ticket
// (before or after its turn arrives) never wedges later tickets.
func TestSequencerAbandonUnblocksSuccessors(t *testing.T) {
	var s ccrt.Sequencer
	t0 := s.Reserve()
	t1 := s.Reserve()
	t2 := s.Reserve()
	s.Abandon(t1) // abandoned out of turn
	done := make(chan struct{})
	go func() {
		s.Wait(t2)
		s.Done(t2)
		close(done)
	}()
	s.Wait(t0)
	s.Done(t0)
	<-done // t2 proceeds across the abandoned t1
}

// TestWaitSetTargetedWake: Wake signals exactly the named waiter; WakeAll
// signals everyone; redundant signals coalesce in the 1-slot buffer.
func TestWaitSetTargetedWake(t *testing.T) {
	var mu sync.Mutex
	var w ccrt.WaitSet
	chA := make(chan struct{}, 1)
	chB := make(chan struct{}, 1)
	mu.Lock()
	w.Register("a", chA)
	w.Register("b", chB)
	if !w.Wake("a") {
		mu.Unlock()
		t.Fatal("Wake(a) found no waiter")
	}
	w.Wake("a") // coalesces into the latched signal, must not block
	mu.Unlock()
	select {
	case <-chA:
	default:
		t.Fatal("a not woken by targeted Wake")
	}
	select {
	case <-chB:
		t.Fatal("b woken by Wake(a): targeted wake leaked")
	default:
	}
	mu.Lock()
	if w.Wake("missing") {
		t.Error("Wake on an absent waiter reported success")
	}
	w.WakeAll()
	mu.Unlock()
	select {
	case <-chB:
	default:
		t.Fatal("b not woken by WakeAll")
	}
	mu.Lock()
	w.Unregister("a")
	w.Unregister("b")
	if w.Len() != 0 {
		t.Errorf("WaitSet.Len = %d after Unregister, want 0", w.Len())
	}
	mu.Unlock()
}

// TestVersionLogMonotonic: Append enforces strictly ascending timestamps,
// StateBelow picks the right prefix snapshot, At answers at or below its
// argument but never below the floor, and Trim keeps the newest half.
func TestVersionLogMonotonic(t *testing.T) {
	s := adts.CounterSpec{}
	var l ccrt.VersionLog
	st1, _ := ccrt.Replay(s.Init(), []spec.Call{{Inv: spec.Invocation{Op: adts.OpIncrement, Arg: value.Nil()}, Result: value.Int(1)}})
	if err := l.Append(5, st1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(5, st1); err == nil {
		t.Fatal("Append accepted a non-ascending timestamp")
	}
	if got := l.StateBelow(5, s.Init()).Key(); got != "0" {
		t.Errorf("StateBelow(5) = %s, want initial 0 (strictly below)", got)
	}
	if got := l.StateBelow(6, s.Init()).Key(); got != "1" {
		t.Errorf("StateBelow(6) = %s, want 1", got)
	}
	if got := l.Head(s.Init()).Key(); got != "1" {
		t.Errorf("Head = %s, want 1", got)
	}
	if st, ok := l.At(5); !ok || st.Key() != "1" {
		t.Errorf("At(5) = %v, %v; want 1 (at or below)", st, ok)
	}
	if _, ok := l.At(4); ok {
		t.Error("At(4) answered below the floor 5")
	}
	var empty ccrt.VersionLog
	if _, ok := empty.At(100); ok || empty.Floor() != histories.TSNone || empty.HeadTS() != histories.TSNone {
		t.Error("an empty log answered a lookup or reported a floor or head")
	}

	// Trim: past its cap a log keeps its newest half, its floor becomes the
	// oldest kept timestamp, and lookups below the floor refuse.
	l = ccrt.VersionLog{}
	st := s.Init()
	for i := 1; i <= 9; i++ {
		st, _ = ccrt.Replay(st, []spec.Call{{Inv: spec.Invocation{Op: adts.OpIncrement, Arg: value.Nil()}, Result: value.Int(int64(i))}})
		if err := l.Append(histories.Timestamp(10*i), st); err != nil {
			t.Fatal(err)
		}
	}
	l.Trim(9)
	if l.Len() != 9 || l.Floor() != 10 {
		t.Fatalf("Trim at the cap changed the log: len %d floor %d", l.Len(), l.Floor())
	}
	l.Trim(8)
	if l.Len() != 5 || l.Floor() != 50 || l.HeadTS() != 90 {
		t.Fatalf("after Trim(8): len %d floor %d head %d, want 5, 50, 90 (newest half kept)", l.Len(), l.Floor(), l.HeadTS())
	}
	for ts, want := range map[histories.Timestamp]string{50: "5", 65: "6", 90: "9", 1000: "9"} {
		if got, ok := l.At(ts); !ok || got.Key() != want {
			t.Errorf("At(%d) = %v, %v; want %s", ts, got, ok, want)
		}
	}
	if _, ok := l.At(49); ok {
		t.Error("At(49) answered below the trimmed floor 50")
	}
}

// TestTableDeterministicIteration: Sorted returns the ids in lexical order,
// each with its own entry, regardless of insertion order and of the slot
// order a delete leaves behind, and Delete detaches exactly one entry.
func TestTableDeterministicIteration(t *testing.T) {
	var tb ccrt.Table[int]
	for i, id := range []histories.ActivityID{"t9", "t1", "t5"} {
		*tb.Get(id) = i + 1
	}
	type pair struct {
		id histories.ActivityID
		v  int
	}
	sorted := func(keep func(histories.ActivityID, *int) bool) []pair {
		var out []pair
		for _, x := range tb.Sorted(keep) {
			out = append(out, pair{x.ID, *x.E})
		}
		return out
	}
	if got, want := sorted(nil), []pair{{"t1", 2}, {"t5", 3}, {"t9", 1}}; !slices.Equal(got, want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	// Deleting the first slot moves the last one into its place.
	if e := tb.Delete("t9"); e == nil || *e != 1 {
		t.Fatalf("Delete(t9) = %v, want the entry holding 1", e)
	}
	if tb.Len() != 2 || tb.Lookup("t9") != nil {
		t.Fatal("Delete left the entry behind")
	}
	if got, want := sorted(nil), []pair{{"t1", 2}, {"t5", 3}}; !slices.Equal(got, want) {
		t.Fatalf("Sorted after delete = %v, want %v", got, want)
	}
	if e := tb.Delete("t9"); e != nil {
		t.Fatalf("second Delete(t9) = %v, want nil", e)
	}
	if got, want := sorted(func(id histories.ActivityID, e *int) bool { return *e == 3 }), []pair{{"t5", 3}}; !slices.Equal(got, want) {
		t.Fatalf("filtered Sorted = %v, want %v", got, want)
	}
}
