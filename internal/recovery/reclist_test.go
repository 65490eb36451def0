package recovery

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// reclistSpecs are the objects the chunked-log tests write: two client
// accounts and one replicated account.
func reclistSpecs() map[histories.ObjectID]spec.SerialSpec {
	return map[histories.ObjectID]spec.SerialSpec{
		"a": adts.AccountSpec{},
		"b": adts.AccountSpec{},
		"r": adts.AccountSpec{},
	}
}

// reclistGroup is the i-th record group the chunked-log tests append: a
// committed two-account transfer, with every seventh group a committed
// replica delivery and every eleventh an undecided intentions record left
// in doubt, so a checkpoint keeps some intentions and a watermark.
func reclistGroup(i int) []Record {
	txn := histories.ActivityID(fmt.Sprintf("t%d", i))
	g := []Record{
		{Kind: RecordIntentions, Txn: txn, Object: "a", Participants: []string{"A", "B"},
			Calls: []spec.Call{call(adts.OpDeposit, value.Int(int64(1+i%5)), value.Unit())}},
		{Kind: RecordIntentions, Txn: txn, Object: "b", Participants: []string{"A", "B"},
			Calls: []spec.Call{call(adts.OpDeposit, value.Int(2), value.Unit())}},
		OutcomeRecord(txn, true),
	}
	if i%7 == 0 {
		rtxn := histories.ActivityID(fmt.Sprintf("repl!%d", i))
		g = append(g,
			Record{Kind: RecordIntentions, Txn: rtxn, Object: "r", Migrate: ReplicaIn, TS: histories.Timestamp(i + 1),
				Calls: []spec.Call{call(adts.OpDeposit, value.Int(1), value.Unit())}},
			OutcomeRecord(rtxn, true))
	}
	if i%11 == 0 {
		g = append(g, Record{Kind: RecordIntentions, Txn: histories.ActivityID(fmt.Sprintf("d%d", i)), Object: "a",
			Participants: []string{"A", "C"}, Calls: []spec.Call{call(adts.OpDeposit, value.Int(100), value.Unit())}})
	}
	return g
}

// sameLog fails unless got is what Records would return for the flat log
// want (deep copies of its records): equal Torn flags and byte-identical
// encodings (the encoding tells every field, and decoded records from a
// reopened file compare equal through it).
func sameLog(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	specs := reclistSpecs()
	for i := range got {
		g, err := appendRecord(nil, got[i], specs)
		if err != nil {
			t.Fatal(err)
		}
		w, err := appendRecord(nil, want[i].clone(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Torn != want[i].Torn || !bytes.Equal(g, w) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// matchesFlat checks every reader of b against the flat reference log:
// Records, Len, Restart and ReplicaWatermarks.
func matchesFlat(t *testing.T, what string, b Backend, ref []Record) {
	t.Helper()
	sameLog(t, what, b.Records(), ref)
	if b.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", what, b.Len(), len(ref))
	}
	specs := reclistSpecs()
	got, err := Restart(b, specs)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := FoldLog(ref).Redo(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range specs {
		if got[id].Key() != want[id].Key() {
			t.Fatalf("%s: Restart state of %s = %s, want %s", what, id, got[id].Key(), want[id].Key())
		}
	}
	if got, want := ReplicaWatermarks(b), FoldLog(ref).Watermarks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ReplicaWatermarks = %v, want %v", what, got, want)
	}
}

// checkpointMatchesFlat runs CheckpointHosted on b and checks the result
// against compacting the flat reference, returning the new reference.
func checkpointMatchesFlat(t *testing.T, what string, b Backend, ref []Record) []Record {
	t.Helper()
	specs := reclistSpecs()
	hosted := map[histories.ObjectID]bool{"a": true, "b": true}
	want, err := FoldLog(ref).compact(specs, hosted, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CheckpointHosted(specs, hosted); err != nil {
		t.Fatalf("%s: checkpoint: %v", what, err)
	}
	matchesFlat(t, what+" after checkpoint", b, want)
	return want
}

// TestChunkedLogMatchesFlat: the log core keeps its records in chunks that
// an append never moves, and nothing a reader can see tells it from the
// flat slice it replaced. Over more than three chunks' worth of records,
// with torn and failed appends and torn checkpoints firing in between, the
// in-memory Disk's Records, Len, Restart, ReplicaWatermarks and a
// CheckpointHosted equal what the flat reference log gives.
func TestChunkedLogMatchesFlat(t *testing.T) {
	d := &Disk{}
	inj := fault.New(11)
	inj.Enable(fault.DiskAppendTorn, fault.Rule{Prob: 0.02})
	inj.Enable(fault.DiskAppendFail, fault.Rule{Prob: 0.02})
	d.SetInjector(inj)
	var ref []Record
	tornTotal, failTotal, ckptTorn := 0, 0, 0
	for i := 0; len(ref) < 3*maxChunk+minChunk; i++ {
		for _, r := range reclistGroup(i) {
			torn := obsWALTorn.Load()
			switch err := d.Append(r); {
			case err == nil:
				ref = append(ref, r.clone())
			case obsWALTorn.Load() > torn:
				tr := r.clone()
				tr.Calls, tr.Torn = tr.Calls[:len(tr.Calls)/2], true
				ref = append(ref, tr)
				tornTotal++
			default:
				failTotal++
			}
		}
		if i%300 == 150 {
			inj.Enable(fault.DiskCheckpointTorn, fault.Rule{Prob: 1})
			if _, err := d.CheckpointHosted(reclistSpecs(), nil); err == nil {
				t.Fatal("torn checkpoint succeeded")
			}
			inj.Enable(fault.DiskCheckpointTorn, fault.Rule{})
			ref = append(ref, Record{Kind: RecordCheckpoint, Torn: true})
			ckptTorn++
		}
	}
	if tornTotal == 0 || failTotal == 0 || ckptTorn < 2 {
		t.Fatalf("faults fired: %d torn, %d failed appends, %d torn checkpoints; want some of each", tornTotal, failTotal, ckptTorn)
	}
	matchesFlat(t, "disk", d, ref)

	d.SetInjector(nil)
	ref = checkpointMatchesFlat(t, "disk", d, ref)
	for i := 0; i < maxChunk; i++ {
		for _, r := range reclistGroup(100000 + i) {
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, r.clone())
		}
	}
	matchesFlat(t, "disk, appended after checkpoint", d, ref)
}

// TestChunkedLogMatchesFlatOnFileWAL is TestChunkedLogMatchesFlat for the
// file WAL's mirror, which takes acknowledged batches into the same
// chunked list: a torn checkpoint leaves it as it was, and the mirror, a
// reopened directory's scan, and a checkpoint all equal the flat reference.
func TestChunkedLogMatchesFlatOnFileWAL(t *testing.T) {
	dir := t.TempDir()
	specs := reclistSpecs()
	w := openTestWAL(t, dir, specs)
	var ref []Record
	inj := fault.New(3)
	for i := 0; len(ref) < 3*maxChunk+minChunk; i++ {
		g := reclistGroup(i)
		if errs := w.AppendBatch([][]Record{g}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		for _, r := range g {
			ref = append(ref, r.clone())
		}
		if i%300 == 150 {
			inj.Enable(fault.DiskCheckpointTorn, fault.Rule{Prob: 1})
			w.SetInjector(inj)
			if _, err := w.CheckpointHosted(specs, nil); err == nil {
				t.Fatal("torn checkpoint succeeded")
			}
			w.SetInjector(nil)
		}
	}
	matchesFlat(t, "file WAL", w, ref)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openTestWAL(t, dir, specs)
	matchesFlat(t, "reopened file WAL", w, ref)

	ref = checkpointMatchesFlat(t, "file WAL", w, ref)
	for i := 0; i < minChunk; i++ {
		g := reclistGroup(100000 + i)
		if errs := w.AppendBatch([][]Record{g}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		ref = append(ref, g...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openTestWAL(t, dir, specs)
	matchesFlat(t, "file WAL reopened after checkpoint", w, ref)
}

// TestWarmDiskAppendAllocs: the log keeps a record's calls and participant
// names in chunks it owns, so appending an intentions record to a warm Disk
// allocates only when a chunk fills — amortised, well under once per
// record. A log that deep-copied each record allocated twice per record.
func TestWarmDiskAppendAllocs(t *testing.T) {
	d := &Disk{}
	rec := Record{Kind: RecordIntentions, Txn: "t1", Object: "a", Participants: []string{"A", "B"},
		Calls: []spec.Call{call(adts.OpDeposit, value.Int(1), value.Unit())}}
	for i := 0; i < maxChunk; i++ {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	const n = 16 * maxChunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.1 {
		t.Errorf("a warm intentions append allocates %.3f times, want < 0.1", per)
	}
}

// TestKeptCallsAreCapped: the calls and participants the log keeps are
// capped at their length inside its chunks, so a reader that appends to
// one record's slices reallocates and never overwrites the next record's,
// on either backend's path into the log.
func TestKeptCallsAreCapped(t *testing.T) {
	check := func(name string, l *memLog) {
		t.Helper()
		l.mu.Lock()
		recs := l.records.flat()
		l.mu.Unlock()
		if len(recs) != 2 {
			t.Fatalf("%s: %d records, want 2", name, len(recs))
		}
		_ = append(recs[0].Calls, call(adts.OpWithdraw, value.Int(99), value.Unit()))
		_ = append(recs[0].Participants, "Z")
		if got := recs[1].Calls[0].Inv.Arg; got != value.Int(2) {
			t.Errorf("%s: an append to the first record's calls overwrote the second's: %v", name, got)
		}
		if got := recs[1].Participants[0]; got != "C" {
			t.Errorf("%s: an append to the first record's participants overwrote the second's: %q", name, got)
		}
	}
	g := []Record{
		{Kind: RecordIntentions, Txn: "t1", Object: "a", Participants: []string{"A"},
			Calls: []spec.Call{call(adts.OpDeposit, value.Int(1), value.Unit())}},
		{Kind: RecordIntentions, Txn: "t2", Object: "b", Participants: []string{"C"},
			Calls: []spec.Call{call(adts.OpDeposit, value.Int(2), value.Unit())}},
	}
	d := &Disk{}
	for _, r := range g {
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	check("disk", &d.memLog)
	w := openTestWAL(t, t.TempDir(), reclistSpecs())
	defer w.Close()
	if errs := w.AppendBatch([][]Record{g}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	check("file WAL mirror", &w.memLog)
}
