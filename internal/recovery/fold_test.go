package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func depositIntent(txn histories.ActivityID, obj histories.ObjectID, amt int64) Record {
	return Record{
		Kind:   RecordIntentions,
		Txn:    txn,
		Object: obj,
		Calls:  []spec.Call{call(adts.OpDeposit, value.Int(amt), value.Unit())},
	}
}

// TestFoldRows pins what the fold reports beside the fates: in-doubt rows
// in first-seen order with their objects, participants and migration
// halves; the decided map; replica watermarks; migrate-in placement
// versions; the highest transaction number.
func TestFoldRows(t *testing.T) {
	base := stateWithBalance(t, 5)
	recs := []Record{
		{Kind: RecordCheckpoint, Decided: map[histories.ActivityID]bool{"t7": true},
			ReplicaTS: map[histories.ObjectID]histories.Timestamp{"r": 4, "q": 9}},
		{Kind: RecordIntentions, Txn: "t12", Object: "a", Participants: []string{"A", "B"}},
		{Kind: RecordIntentions, Txn: "m1", Object: "b", Migrate: MigrateIn, RingV: 3,
			States: map[histories.ObjectID]spec.State{"b": base}, Participants: []string{"B", "C"}},
		{Kind: RecordIntentions, Txn: "t12", Object: "b", Participants: []string{"B", "A"}},
		{Kind: RecordIntentions, Txn: "repl!1", Object: "r", Migrate: ReplicaIn, TS: 6},
		{Kind: RecordCommit, Txn: "repl!1"},
		{Kind: RecordIntentions, Txn: "repl!2", Object: "r", Migrate: ReplicaIn, TS: 8}, // uncommitted
		{Kind: RecordIntentions, Txn: "m0", Object: "c", Migrate: MigrateIn, RingV: 2},
		{Kind: RecordCommit, Txn: "m0"},
		{Kind: RecordAbort, Txn: "t30"},
		{Kind: RecordCommit, Txn: "t31", Torn: true},
	}
	f := FoldLog(recs)

	doubts := f.InDoubt()
	if len(doubts) != 2 || doubts[0].Txn != "t12" || doubts[1].Txn != "m1" {
		t.Fatalf("in-doubt rows = %v, want t12 then m1", doubts)
	}
	if got := doubts[0]; !reflect.DeepEqual(got.Objects, []histories.ObjectID{"a", "b"}) ||
		!reflect.DeepEqual(got.Participants, []string{"A", "B"}) || got.Migrate != nil {
		t.Errorf("t12 row = %+v", got)
	}
	if got := doubts[1]; got.Migrate["b"] != MigrateIn || !reflect.DeepEqual(got.Participants, []string{"B", "C"}) {
		t.Errorf("m1 row = %+v", got)
	}
	wantDecided := map[histories.ActivityID]bool{"t7": true, "repl!1": true, "m0": true, "t30": false}
	if got := f.Decided(); !reflect.DeepEqual(got, wantDecided) {
		t.Errorf("Decided = %v, want %v", got, wantDecided)
	}
	wantMarks := map[histories.ObjectID]histories.Timestamp{"r": 6, "q": 9}
	if got := f.Watermarks(); !reflect.DeepEqual(got, wantMarks) {
		t.Errorf("Watermarks = %v, want %v", got, wantMarks)
	}
	d := &Disk{}
	d.records = recs
	if got := ReplicaWatermarks(d); !reflect.DeepEqual(got, wantMarks) {
		t.Errorf("ReplicaWatermarks = %v, want the fold's %v", got, wantMarks)
	}
	if got := f.HomedAt(); !reflect.DeepEqual(got, map[histories.ObjectID]uint64{"c": 2}) {
		t.Errorf("HomedAt = %v, want c:2 only (m1 is undecided)", got)
	}
	// t31 is only mentioned by a torn record: it does not exist.
	if got := f.MaxSeq(); got != 30 {
		t.Errorf("MaxSeq = %d, want 30", got)
	}

	// Add keeps the fold equal to a fresh fold of the extended log: the
	// migrate-in resolves and its placement version appears.
	f.Add(OutcomeRecord("m1", true))
	f.Add(OutcomeRecord("t12", false))
	fresh := FoldLog(append(append([]Record(nil), recs...), OutcomeRecord("m1", true), OutcomeRecord("t12", false)))
	if !reflect.DeepEqual(f.Decided(), fresh.Decided()) || !reflect.DeepEqual(f.HomedAt(), fresh.HomedAt()) || len(f.InDoubt()) != 0 {
		t.Errorf("fold after Add: decided %v homedAt %v in-doubt %v; fresh fold: decided %v homedAt %v",
			f.Decided(), f.HomedAt(), f.InDoubt(), fresh.Decided(), fresh.HomedAt())
	}
	if got := f.HomedAt()["b"]; got != 3 {
		t.Errorf("HomedAt[b] after m1 commits = %d, want 3", got)
	}
	if len(recs) != 11 {
		t.Errorf("Add wrote through to the caller's slice: len %d", len(recs))
	}
}

// TestCheckpointDropsIntentionsLoggedAfterTheirCommit: a commit is
// position-independent, so intentions that land after their transaction's
// commit record are already in the snapshot and must not be carried forward
// as undecided — replay would redo them twice.
func TestCheckpointDropsIntentionsLoggedAfterTheirCommit(t *testing.T) {
	specs := checkpointSpecs()
	for _, backend := range []string{"disk", "file"} {
		var b Backend = &Disk{}
		if backend == "file" {
			w, err := OpenFileWAL(FileWALOptions{Dir: t.TempDir(), Specs: specs})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			b = w
		}
		for _, r := range []Record{depositIntent("x", "a", 10), OutcomeRecord("x", true), depositIntent("x", "b", 10)} {
			if err := b.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		before, err := Restart(b, specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Checkpoint(specs); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 1 {
			t.Errorf("%s: compacted log has %d records, want the checkpoint alone", backend, b.Len())
		}
		after, err := Restart(b, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stateKeys(before), stateKeys(after)) || stateKeys(after)["b"] != "10" {
			t.Errorf("%s: restart before %v, after %v", backend, stateKeys(before), stateKeys(after))
		}
	}
}

func stateKeys(states map[histories.ObjectID]spec.State) map[histories.ObjectID]string {
	out := make(map[histories.ObjectID]string, len(states))
	for id, st := range states {
		out[id] = st.Key()
	}
	return out
}

// recordKeys renders a log with states reduced to their keys, so logs from
// different backends (whose decoded states are distinct values) compare.
func recordKeys(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		states := stateKeys(r.States)
		r.States = nil
		if len(r.Calls) == 0 {
			r.Calls = nil
		}
		if len(r.Participants) == 0 {
			r.Participants = nil
		}
		out[i] = fmt.Sprintf("%+v states=%v", r, states)
	}
	return out
}

// TestDiskAndFileWALAgree is the backend differential: the same seeded
// random record groups go into a Disk and a FileWAL, both checkpoint, and
// at every step the two must hold identical logs and rebuild identical
// states — before the checkpoint, after it, after more appends on top of
// it, and after the FileWAL is closed and reopened.
func TestDiskAndFileWALAgree(t *testing.T) {
	specs := checkpointSpecs()
	objs := []histories.ObjectID{"a", "b"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		disk := &Disk{}
		file, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		randomGroups := func() [][]Record {
			var groups [][]Record
			for n := 2 + rng.Intn(6); n > 0; n-- {
				next++
				txn := histories.ActivityID(fmt.Sprintf("t%d", next))
				var g []Record
				for _, obj := range objs {
					if rng.Intn(2) == 0 {
						g = append(g, depositIntent(txn, obj, int64(1+rng.Intn(9))))
					}
				}
				switch rng.Intn(5) {
				case 0: // in doubt: intentions only
				case 1:
					g = append(g, OutcomeRecord(txn, false))
				case 2: // duplicate and contradictory outcome records
					g = append(g, OutcomeRecord(txn, true), OutcomeRecord(txn, false), OutcomeRecord(txn, true))
				default:
					g = append(g, OutcomeRecord(txn, true))
				}
				if len(g) > 0 {
					groups = append(groups, g)
				}
			}
			return groups
		}
		agree := func(stage string) {
			t.Helper()
			if d, f := recordKeys(disk.Records()), recordKeys(file.Records()); !reflect.DeepEqual(d, f) {
				t.Fatalf("seed %d, %s: logs differ\ndisk: %v\nfile: %v", seed, stage, d, f)
			}
			ds, derr := Restart(disk, specs)
			fs, ferr := Restart(file, specs)
			if derr != nil || ferr != nil {
				t.Fatalf("seed %d, %s: restart: disk %v, file %v", seed, stage, derr, ferr)
			}
			if !reflect.DeepEqual(stateKeys(ds), stateKeys(fs)) {
				t.Fatalf("seed %d, %s: states differ: disk %v, file %v", seed, stage, stateKeys(ds), stateKeys(fs))
			}
		}
		appendBoth := func() {
			groups := randomGroups()
			for i, err := range disk.AppendBatch(groups) {
				if err != nil {
					t.Fatalf("seed %d: disk group %d: %v", seed, i, err)
				}
			}
			for i, err := range file.AppendBatch(groups) {
				if err != nil {
					t.Fatalf("seed %d: file group %d: %v", seed, i, err)
				}
			}
		}
		appendBoth()
		agree("before checkpoint")
		want, err := Restart(disk, specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.Checkpoint(specs); err != nil {
			t.Fatal(err)
		}
		if _, err := file.Checkpoint(specs); err != nil {
			t.Fatal(err)
		}
		agree("after checkpoint")
		if got, err := Restart(disk, specs); err != nil || !reflect.DeepEqual(stateKeys(got), stateKeys(want)) {
			t.Fatalf("seed %d: checkpoint changed the states: %v -> %v (%v)", seed, stateKeys(want), stateKeys(got), err)
		}
		appendBoth()
		agree("appends after checkpoint")
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		if file, err = OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs}); err != nil {
			t.Fatal(err)
		}
		agree("after reopen")
		file.Close()
	}
}
