package recovery

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func call(op string, arg, res value.Value) spec.Call {
	return spec.Call{Inv: spec.Invocation{Op: op, Arg: arg}, Result: res}
}

func TestIntentionsApply(t *testing.T) {
	var l IntentionsList
	l.Add(call(adts.OpDeposit, value.Int(10), value.Unit()))
	l.Add(call(adts.OpWithdraw, value.Int(3), value.Unit()))
	st, err := l.Apply(adts.AccountSpec{}.Init())
	if err != nil {
		t.Fatal(err)
	}
	if st.(adts.AccountState).Balance() != 7 {
		t.Errorf("balance %d, want 7", st.(adts.AccountState).Balance())
	}
	if l.Len() != 2 {
		t.Errorf("len %d", l.Len())
	}
}

func TestIntentionsApplyDetectsDivergence(t *testing.T) {
	var l IntentionsList
	// Recorded ok, but replay from 0 yields insufficient_funds.
	l.Add(call(adts.OpWithdraw, value.Int(3), value.Unit()))
	if _, err := l.Apply(adts.AccountSpec{}.Init()); err == nil {
		t.Error("result divergence not detected")
	}
	// An inapplicable invocation is also an error.
	var l2 IntentionsList
	l2.Add(call("bogus", value.Nil(), value.Nil()))
	if _, err := l2.Apply(adts.AccountSpec{}.Init()); err == nil {
		t.Error("inapplicable intention not detected")
	}
	if _, err := l2.View(adts.AccountSpec{}.Init()); err == nil {
		t.Error("inapplicable intention not detected by View")
	}
}

func TestIntentionsViewVerifiesResults(t *testing.T) {
	var l IntentionsList
	l.Add(call(adts.OpDeposit, value.Int(5), value.Unit()))
	st, err := l.View(adts.AccountSpec{}.Init())
	if err != nil {
		t.Fatal(err)
	}
	if st.(adts.AccountState).Balance() != 5 {
		t.Errorf("view balance %d", st.(adts.AccountState).Balance())
	}
	// A recorded result the specification cannot produce is an error.
	var bad IntentionsList
	bad.Add(call(adts.OpDeposit, value.Int(5), value.Str("whatever")))
	if _, err := bad.View(adts.AccountSpec{}.Init()); err == nil {
		t.Error("unachievable recorded result accepted")
	}
}

func TestIntentionsClone(t *testing.T) {
	var l IntentionsList
	l.Add(call(adts.OpDeposit, value.Int(5), value.Unit()))
	c := l.Clone()
	c.Add(call(adts.OpDeposit, value.Int(5), value.Unit()))
	if l.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone aliases: %d/%d", l.Len(), c.Len())
	}
}

// TestResetKeepsBoundedClearedArrays: Reset empties a list and an undo log
// in place, clears the old elements so no value stays reachable through
// the array, and drops an array above the capacity bound.
func TestResetKeepsBoundedClearedArrays(t *testing.T) {
	var l IntentionsList
	for i := 0; i < 3; i++ {
		l.Add(call(adts.OpDeposit, value.Int(int64(i)), value.Unit()))
	}
	calls := l.Calls()
	l.Reset(8)
	if l.Len() != 0 || cap(l.Calls()) != cap(calls) {
		t.Fatalf("Reset: len %d cap %d, want 0 and the old cap %d", l.Len(), cap(l.Calls()), cap(calls))
	}
	for i, c := range calls {
		if c != (spec.Call{}) {
			t.Fatalf("call %d survived Reset: %v", i, c)
		}
	}
	l.Add(call(adts.OpDeposit, value.Int(5), value.Unit()))
	if st, err := l.Apply(adts.AccountSpec{}.Init()); err != nil || st.(adts.AccountState).Balance() != 5 {
		t.Fatalf("reused list applies to %v, %v; want balance 5", st, err)
	}
	l.Reset(0)
	if cap(l.Calls()) != 0 {
		t.Fatalf("Reset(0) kept an array of cap %d", cap(l.Calls()))
	}

	var u UndoLog
	u.Record([]spec.Invocation{{Op: adts.OpWithdraw, Arg: value.Int(1)}})
	frames := u.frames
	u.Reset(8)
	if u.Len() != 0 || frames[0] != nil || cap(u.frames) != cap(frames) {
		t.Fatalf("undo Reset: len %d, old frame %v, cap %d", u.Len(), frames[0], cap(u.frames))
	}
	u.Record(nil)
	u.Reset(0)
	if u.frames != nil {
		t.Fatal("undo Reset(0) kept its array")
	}
}

func TestUndoLogReverses(t *testing.T) {
	st := spec.State(adts.AccountState(0))
	var u UndoLog
	apply := func(op string, n int64) {
		t.Helper()
		in := spec.Invocation{Op: op, Arg: value.Int(n)}
		out, err := spec.Apply(st, in)
		if err != nil {
			t.Fatal(err)
		}
		u.Record(adts.AccountInvert(st, in, out.Result))
		st = out.Next
	}
	apply(adts.OpDeposit, 10)
	apply(adts.OpWithdraw, 4)
	apply(adts.OpDeposit, 1)
	if u.Len() != 3 {
		t.Errorf("undo frames %d", u.Len())
	}
	restored, err := u.Undo(st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.(adts.AccountState).Balance() != 0 {
		t.Errorf("restored balance %d, want 0", restored.(adts.AccountState).Balance())
	}
}

func TestUndoLogError(t *testing.T) {
	var u UndoLog
	u.Record([]spec.Invocation{{Op: "bogus"}})
	if _, err := u.Undo(adts.AccountSpec{}.Init()); err == nil {
		t.Error("bad compensation not detected")
	}
}

func newDiskWith(records ...Record) *Disk {
	d := &Disk{}
	for _, r := range records {
		d.Append(r)
	}
	return d
}

func TestRestartRedoesCommittedOnly(t *testing.T) {
	specs := map[histories.ObjectID]spec.SerialSpec{
		"x": adts.IntSetSpec{},
		"y": adts.AccountSpec{},
	}
	d := newDiskWith(
		// t1 commits across two objects.
		Record{Kind: RecordIntentions, Txn: "t1", Object: "x", Calls: []spec.Call{call(adts.OpInsert, value.Int(3), value.Unit())}},
		Record{Kind: RecordIntentions, Txn: "t1", Object: "y", Calls: []spec.Call{call(adts.OpDeposit, value.Int(10), value.Unit())}},
		Record{Kind: RecordCommit, Txn: "t1"},
		// t2 prepares but crashes before its commit record: must vanish.
		Record{Kind: RecordIntentions, Txn: "t2", Object: "y", Calls: []spec.Call{call(adts.OpWithdraw, value.Int(5), value.Unit())}},
		// t3 aborts explicitly.
		Record{Kind: RecordIntentions, Txn: "t3", Object: "x", Calls: []spec.Call{call(adts.OpInsert, value.Int(9), value.Unit())}},
		Record{Kind: RecordAbort, Txn: "t3"},
	)
	states, err := Restart(d, specs)
	if err != nil {
		t.Fatal(err)
	}
	if states["x"].Key() != "{3}" {
		t.Errorf("x after restart: %s, want {3}", states["x"].Key())
	}
	if states["y"].(adts.AccountState).Balance() != 10 {
		t.Errorf("y after restart: %d, want 10", states["y"].(adts.AccountState).Balance())
	}
}

func TestRestartSequentialCommitsCompose(t *testing.T) {
	specs := map[histories.ObjectID]spec.SerialSpec{"y": adts.AccountSpec{}}
	d := newDiskWith(
		Record{Kind: RecordIntentions, Txn: "t1", Object: "y", Calls: []spec.Call{call(adts.OpDeposit, value.Int(10), value.Unit())}},
		Record{Kind: RecordCommit, Txn: "t1"},
		Record{Kind: RecordIntentions, Txn: "t2", Object: "y", Calls: []spec.Call{call(adts.OpWithdraw, value.Int(4), value.Unit())}},
		Record{Kind: RecordCommit, Txn: "t2"},
		Record{Kind: RecordInstalled, Txn: "t2", Object: "y"},
	)
	states, err := Restart(d, specs)
	if err != nil {
		t.Fatal(err)
	}
	if states["y"].(adts.AccountState).Balance() != 6 {
		t.Errorf("balance %d, want 6", states["y"].(adts.AccountState).Balance())
	}
}

func TestRestartErrors(t *testing.T) {
	// Unknown object.
	d := newDiskWith(
		Record{Kind: RecordIntentions, Txn: "t1", Object: "zz", Calls: []spec.Call{call(adts.OpDeposit, value.Int(1), value.Unit())}},
		Record{Kind: RecordCommit, Txn: "t1"},
	)
	if _, err := Restart(d, map[histories.ObjectID]spec.SerialSpec{"y": adts.AccountSpec{}}); err == nil {
		t.Error("unknown object not reported")
	}
	// Divergent redo.
	d2 := newDiskWith(
		Record{Kind: RecordIntentions, Txn: "t1", Object: "y", Calls: []spec.Call{call(adts.OpWithdraw, value.Int(1), value.Unit())}},
		Record{Kind: RecordCommit, Txn: "t1"},
	)
	if _, err := Restart(d2, map[histories.ObjectID]spec.SerialSpec{"y": adts.AccountSpec{}}); err == nil {
		t.Error("divergent redo not reported")
	}
}

func TestDiskSnapshotIsolation(t *testing.T) {
	d := &Disk{}
	calls := []spec.Call{call(adts.OpDeposit, value.Int(1), value.Unit())}
	d.Append(Record{Kind: RecordIntentions, Txn: "t1", Object: "y", Calls: calls})
	calls[0] = call(adts.OpDeposit, value.Int(99), value.Unit())
	recs := d.Records()
	if got := recs[0].Calls[0].Inv.Arg; got != value.Int(1) {
		t.Errorf("disk aliased caller slice: %v", got)
	}
	if d.Len() != 1 {
		t.Errorf("len %d", d.Len())
	}
}
