package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

func openTestWAL(t *testing.T, dir string, specs map[histories.ObjectID]spec.SerialSpec) *FileWAL {
	t.Helper()
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func fileDeposit(t *testing.T, w Backend, txn histories.ActivityID, obj histories.ObjectID, amt int64) {
	t.Helper()
	for _, r := range depositGroup(txn, obj, amt) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileWALRoundTrip: records appended through the file backend survive a
// close + reopen bit-exactly, and Restart rebuilds the same states as the
// in-memory disk would.
func TestFileWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := checkpointSpecs()
	w := openTestWAL(t, dir, specs)
	fileDeposit(t, w, "t1", "a", 5)
	fileDeposit(t, w, "t2", "b", 7)
	if err := w.Append(Record{
		Kind:         RecordIntentions,
		Txn:          "doubt",
		Object:       "a",
		Calls:        []spec.Call{call(adts.OpDeposit, value.Int(100), value.Unit())},
		Participants: []string{"A", "B"},
		TS:           42,
	}); err != nil {
		t.Fatal(err)
	}
	before := w.Records()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, specs)
	after := w2.Records()
	if len(after) != len(before) {
		t.Fatalf("reopened log has %d records, want %d", len(after), len(before))
	}
	doubt := after[len(after)-1]
	if doubt.Txn != "doubt" || doubt.TS != 42 || len(doubt.Participants) != 2 || len(doubt.Calls) != 1 {
		t.Errorf("in-doubt record did not round-trip: %+v", doubt)
	}
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if states["a"].(adts.AccountState).Balance() != 5 || states["b"].(adts.AccountState).Balance() != 7 {
		t.Errorf("states %v/%v, want 5/7 (undecided deposit must not apply)", states["a"], states["b"])
	}
}

// TestFileWALAppendBatch: the group-commit entry point forces every group
// with one fsync and all of it survives reopen.
func TestFileWALAppendBatch(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, accountSpecs())
	errs := w.AppendBatch([][]Record{
		depositGroup("t1", "a", 1),
		depositGroup("t2", "a", 2),
		depositGroup("t3", "a", 4),
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	w.Close()
	w2 := openTestWAL(t, dir, accountSpecs())
	states, err := Restart(w2, accountSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 7 {
		t.Errorf("balance %d, want 7", got)
	}
}

// TestFileWALTornTailTrimmed: a crash mid-frame leaves a torn tail; reopen
// trims it physically at the first bad CRC and replays the clean prefix.
func TestFileWALTornTailTrimmed(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, accountSpecs())
	fileDeposit(t, w, "t1", "a", 5)
	fileDeposit(t, w, "t2", "a", 6)
	w.Close()

	// Tear the tail: chop the last 3 bytes of the segment, as a crash
	// mid-write would.
	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, accountSpecs())
	// t2's commit record is torn off: its intentions may survive, but the
	// transaction must not replay.
	states, err := Restart(w2, accountSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 5 {
		t.Errorf("balance %d, want 5 (torn t2 must not replay)", got)
	}
	// The trim is physical: the file ends at the last whole frame.
	trimmed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid, torn := scanFrames(trimmed)
	if torn || valid != len(trimmed) {
		t.Errorf("segment not physically trimmed: %d bytes, %d valid, torn=%v", len(trimmed), valid, torn)
	}
	if len(payloads) != 3 {
		t.Errorf("trimmed segment has %d frames, want 3", len(payloads))
	}
	// Appends continue cleanly after the trim.
	fileDeposit(t, w2, "t3", "a", 2)
	w2.Close()
	w3 := openTestWAL(t, dir, accountSpecs())
	states, err = Restart(w3, accountSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 7 {
		t.Errorf("balance %d, want 7 after post-trim append", got)
	}
}

// TestFileWALCorruptNonFinalRefused: damage in a non-final segment cannot
// be a torn tail — every byte of a rotated segment was fsynced and
// acknowledged before the next segment opened — so open refuses with
// ErrCorrupt instead of silently trimming acknowledged history.
func TestFileWALCorruptNonFinalRefused(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		fileDeposit(t, w, histories.ActivityID(fmt.Sprintf("t%d", i)), "a", 1)
	}
	w.Close()

	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a byte mid-segment
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, SegmentBytes: 256})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of corrupt non-final segment = %v, want ErrCorrupt", err)
	}
}

// TestFileWALCheckpointCompactsAndReclaims: a checkpoint writes snapshot +
// undecided intentions to a fresh segment, updates the manifest, deletes
// old segments, and a reopen replays identically.
func TestFileWALCheckpointCompactsAndReclaims(t *testing.T) {
	dir := t.TempDir()
	specs := checkpointSpecs()
	w := openTestWAL(t, dir, specs)
	for i := 0; i < 10; i++ {
		fileDeposit(t, w, histories.ActivityID(rune('a'+i)), "a", 5)
		fileDeposit(t, w, histories.ActivityID(rune('A'+i)), "b", 3)
	}
	if err := w.Append(Record{
		Kind:   RecordIntentions,
		Txn:    "doubt",
		Object: "b",
		Calls:  []spec.Call{call(adts.OpDeposit, value.Int(9), value.Unit())},
	}); err != nil {
		t.Fatal(err)
	}
	before, err := Restart(w, specs)
	if err != nil {
		t.Fatal(err)
	}
	reclaimed, err := w.Checkpoint(specs)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Errorf("reclaimed = %d, want > 0", reclaimed)
	}
	if w.Len() != 2 {
		t.Errorf("log length after checkpoint = %d, want checkpoint + in-doubt intentions", w.Len())
	}
	// Old segment physically gone, manifest points at the new base.
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Errorf("segment 0 still present after checkpoint (err=%v)", err)
	}

	// Post-checkpoint appends and the late decision land in the new segment.
	if err := w.Append(Record{Kind: RecordCommit, Txn: "doubt"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	after, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range before {
		want := st.Key()
		if id == "b" {
			want = (st.(adts.AccountState) + 9).Key()
		}
		if after[id] == nil || after[id].Key() != want {
			t.Errorf("object %s: want %q, got %v", id, want, after[id])
		}
	}
}

// TestFileWALCheckpointTornFault: under fault.DiskCheckpointTorn the
// checkpoint fails retryably, nothing is compacted, and the full log stays
// authoritative across a reopen; the retry compacts.
func TestFileWALCheckpointTornFault(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w := openTestWAL(t, dir, specs)
	inj := fault.New(3)
	inj.Enable(fault.DiskCheckpointTorn, fault.Rule{Prob: 1, Limit: 1})
	w.SetInjector(inj)
	for i := 0; i < 4; i++ {
		fileDeposit(t, w, histories.ActivityID(rune('a'+i)), "a", 5)
	}
	n := w.Len()
	if _, err := w.Checkpoint(specs); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("torn checkpoint = %v, want ErrWriteFailed", err)
	}
	if w.Len() != n {
		t.Errorf("log length %d, want %d (uncompacted)", w.Len(), n)
	}
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 20 {
		t.Errorf("balance %d, want 20 after torn checkpoint + reopen", got)
	}
	if _, err := w2.Checkpoint(specs); err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 1 {
		t.Errorf("log length after retried checkpoint = %d, want 1", w2.Len())
	}
}

// TestFileWALAbortedCheckpointSegmentDiscarded: a crash after the
// checkpoint segment was written but before the manifest rename leaves an
// unmanifested checkpoint segment; reopen discards it and the full log
// stays authoritative.
func TestFileWALAbortedCheckpointSegmentDiscarded(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w := openTestWAL(t, dir, specs)
	fileDeposit(t, w, "t1", "a", 5)
	w.Close()

	// Hand-craft the aborted attempt: a fully-written checkpoint segment
	// at seq 1 with no manifest update (the crash happened between fsync
	// and rename).
	cp := Record{
		Kind:    RecordCheckpoint,
		States:  map[histories.ObjectID]spec.State{"a": adts.AccountState(9999)},
		Decided: map[histories.ActivityID]bool{"t1": true},
	}
	payload, err := encodeRecord(cp, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, specs)
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 5 {
		t.Errorf("balance %d, want 5 (aborted checkpoint snapshot must not be adopted)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Errorf("aborted checkpoint segment still present (err=%v)", err)
	}
}

// TestFileWALWriteTornFault: an injected torn frame write fails its group
// retryably, repairs the file by truncation, and later appends (and a
// reopen) see a clean log.
func TestFileWALWriteTornFault(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w := openTestWAL(t, dir, specs)
	inj := fault.New(7)
	inj.Enable(fault.DiskWriteTorn, fault.Rule{Prob: 1, Limit: 1})
	w.SetInjector(inj)

	errs := w.AppendBatch([][]Record{
		depositGroup("t1", "a", 1), // first record tears
		depositGroup("t2", "a", 2),
	})
	if errs[0] == nil {
		t.Fatal("torn group reported success")
	}
	if !errors.Is(errs[0], ErrWriteFailed) {
		t.Fatalf("torn group error = %v, want ErrWriteFailed", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("tear leaked across groups: %v", errs[1])
	}
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 2 {
		t.Errorf("balance %d, want 2 (t2 only)", got)
	}
}

// TestFileWALFsyncFailFault: a failed batch fsync fails every group —
// including ones whose writes succeeded — and nothing from the batch
// survives a reopen: a commit the client saw fail must not resurrect.
func TestFileWALFsyncFailFault(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w := openTestWAL(t, dir, specs)
	fileDeposit(t, w, "t0", "a", 10)
	inj := fault.New(5)
	inj.Enable(fault.DiskFsyncFail, fault.Rule{Prob: 1, Limit: 1})
	w.SetInjector(inj)

	errs := w.AppendBatch([][]Record{
		depositGroup("t1", "a", 1),
		depositGroup("t2", "a", 2),
	})
	for i, err := range errs {
		if !errors.Is(err, ErrWriteFailed) {
			t.Fatalf("group %d after fsync failure = %v, want ErrWriteFailed", i, err)
		}
	}
	if w.Len() != 2 {
		t.Errorf("mirror has %d records, want 2 (t0 only)", w.Len())
	}
	// The injector rule is exhausted; the next batch succeeds.
	if errs := w.AppendBatch([][]Record{depositGroup("t3", "a", 4)}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 14 {
		t.Errorf("balance %d, want 14 (t0+t3; the failed batch must vanish)", got)
	}
}

// TestFileWALSegmentRotation: a tiny rotation threshold produces several
// segments; reopen scans them in sequence order and replays everything.
func TestFileWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		fileDeposit(t, w, histories.ActivityID(fmt.Sprintf("t%d", i)), "a", 1)
	}
	w.Close()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range names {
		if _, ok := parseSegName(e.Name()); ok {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("only %d segments after %d appends at 256-byte rotation, want several", segs, n)
	}
	w2, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	states, err := Restart(w2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != n {
		t.Errorf("balance %d, want %d across %d segments", got, n, segs)
	}
}

// TestFileWALRecordsSnapshotIsolation: Records returns a deep copy —
// mutating it cannot reach the live mirror (the same contract the
// in-memory disk has).
func TestFileWALRecordsSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, accountSpecs())
	fileDeposit(t, w, "t1", "a", 5)
	snap := w.Records()
	snap[0].Calls[0] = call(adts.OpDeposit, value.Int(999), value.Unit())
	snap[0].Txn = "mangled"
	states, err := Restart(w, accountSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 5 {
		t.Errorf("balance %d, want 5 (snapshot mutation leaked into the log)", got)
	}
}

// TestFileWALHostedCheckpoint: CheckpointHosted snapshots hosting and a
// reopen + RestartHosted rebuilds it, including a migrated-out object.
func TestFileWALHostedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	specs := checkpointSpecs()
	w := openTestWAL(t, dir, specs)
	fileDeposit(t, w, "t1", "a", 5)
	// b migrates out.
	if err := w.Append(Record{Kind: RecordIntentions, Txn: "mig", Object: "b", Migrate: MigrateOut}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: RecordCommit, Txn: "mig"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CheckpointHosted(specs, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	states, hosted, err := RestartHosted(w2, specs, map[histories.ObjectID]bool{"a": true, "b": true})
	if err != nil {
		t.Fatal(err)
	}
	if !hosted["a"] || hosted["b"] {
		t.Errorf("hosted = %v, want a only", hosted)
	}
	if _, ok := states["b"]; ok {
		t.Error("migrated-out object still has state after reopen")
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 5 {
		t.Errorf("balance %d, want 5", got)
	}
}

// failingFile wraps a walFile, counting writes and failing operations on
// command. A short write puts half of p in the file and reports it without
// an error, as a misbehaving writer might.
type failingFile struct {
	walFile
	writes     int
	failWrite  bool
	shortWrite bool
	failSync   bool
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failWrite {
		return 0, errors.New("boom: write")
	}
	if f.shortWrite {
		return f.walFile.Write(p[:len(p)/2])
	}
	return f.walFile.Write(p)
}

func (f *failingFile) Sync() error {
	if f.failSync {
		return errors.New("boom: sync")
	}
	return f.walFile.Sync()
}

// failingFS is osFS with per-file failure switches — the injectable file
// layer exercised from the OS-error side rather than the fault-point side.
type failingFS struct {
	osFS
	files []*failingFile
}

func (fs *failingFS) OpenAppend(path string) (walFile, int64, error) {
	f, size, err := fs.osFS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	ff := &failingFile{walFile: f}
	fs.files = append(fs.files, ff)
	return ff, size, nil
}

// TestFileWALOSSyncErrorFailsBatch: a real fsync error from the file layer
// (not an injected fault) also fails the whole batch and truncates it away.
func TestFileWALOSSyncErrorFailsBatch(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	fs := &failingFS{}
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fileDeposit(t, w, "t0", "a", 3)
	fs.files[len(fs.files)-1].failSync = true
	errs := w.AppendBatch([][]Record{depositGroup("t1", "a", 1)})
	if !errors.Is(errs[0], ErrWriteFailed) {
		t.Fatalf("batch after OS sync error = %v, want ErrWriteFailed", errs[0])
	}
	fs.files[len(fs.files)-1].failSync = false
	states, err := Restart(w, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 3 {
		t.Errorf("balance %d, want 3 (failed batch must not replay)", got)
	}
}

// TestFileWALOSWriteErrorIsolatesGroup: a real write error from the file
// layer fails only the group it hit.
func TestFileWALOSWriteErrorIsolatesGroup(t *testing.T) {
	dir := t.TempDir()
	specs := accountSpecs()
	fs := &failingFS{}
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f := fs.files[len(fs.files)-1]
	f.failWrite = true
	errs := w.AppendBatch([][]Record{depositGroup("t1", "a", 1)})
	if !errors.Is(errs[0], ErrWriteFailed) {
		t.Fatalf("group after OS write error = %v, want ErrWriteFailed", errs[0])
	}
	f.failWrite = false
	if errs := w.AppendBatch([][]Record{depositGroup("t2", "a", 2)}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	states, err := Restart(w, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["a"].(adts.AccountState).Balance(); got != 2 {
		t.Errorf("balance %d, want 2 (t2 only)", got)
	}
}

// pairGroup is one transaction's group of three records: deposits of amt
// into a and b, then the commit.
func pairGroup(txn histories.ActivityID, amt int64) []Record {
	return []Record{depositIntent(txn, "a", amt), depositIntent(txn, "b", amt), OutcomeRecord(txn, true)}
}

func pairGroups(first, n int) [][]Record {
	groups := make([][]Record, n)
	for i := range groups {
		groups[i] = pairGroup(histories.ActivityID(fmt.Sprintf("t%d", first+i)), int64(first+i))
	}
	return groups
}

// TestFileWALOneWritePerBatch: AppendBatch hands the file system exactly
// one write per batch, however many groups and records the batch holds.
func TestFileWALOneWritePerBatch(t *testing.T) {
	dir := t.TempDir()
	specs := checkpointSpecs()
	fs := &failingFS{}
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	f := fs.files[len(fs.files)-1]
	next := 1
	for _, n := range []int{1, 8, 64} {
		before := f.writes
		for i, err := range w.AppendBatch(pairGroups(next, n)) {
			if err != nil {
				t.Fatalf("%d groups: group %d: %v", n, i, err)
			}
		}
		next += n
		if got := f.writes - before; got != 1 {
			t.Errorf("a batch of %d groups issued %d writes, want 1", n, got)
		}
	}
	want := w.Len()
	w.Close()
	w2 := openTestWAL(t, dir, specs)
	if w2.Len() != want || want != 3*(next-1) {
		t.Errorf("reopen holds %d records, want %d", w2.Len(), 3*(next-1))
	}
}

// TestFileWALFailedWriteFailsWholeBatch: with one write per batch, a failed
// or short OS write fails every group of the batch, truncates the segment
// back to the batch start, leaves nothing of the batch after a reopen, and
// the next batch succeeds.
func TestFileWALFailedWriteFailsWholeBatch(t *testing.T) {
	for _, mode := range []string{"failed", "short"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			specs := checkpointSpecs()
			fs := &failingFS{}
			w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fileDeposit(t, w, "t0", "a", 100)
			seg := filepath.Join(dir, segName(0))
			before, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}

			f := fs.files[len(fs.files)-1]
			f.failWrite, f.shortWrite = mode == "failed", mode == "short"
			for i, err := range w.AppendBatch(pairGroups(1, 3)) {
				if !errors.Is(err, ErrWriteFailed) {
					t.Fatalf("group %d after a %s write = %v, want ErrWriteFailed", i, mode, err)
				}
			}
			f.failWrite, f.shortWrite = false, false
			if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("segment not truncated back to the batch start: %d bytes, want %d (%v)", len(after), len(before), err)
			}
			if w.Len() != 2 {
				t.Errorf("mirror holds %d records, want 2 (t0 only)", w.Len())
			}
			if errs := w.AppendBatch(pairGroups(4, 1)); errs[0] != nil {
				t.Fatalf("batch after the failed one: %v", errs[0])
			}
			w.Close()

			w2 := openTestWAL(t, dir, specs)
			states, err := Restart(w2, specs)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := states["a"].(adts.AccountState).Balance(), states["b"].(adts.AccountState).Balance(); a != 104 || b != 4 {
				t.Errorf("balances %d/%d, want 104/4 (t0 and t4; the failed batch must vanish)", a, b)
			}
		})
	}
}

// TestFileWALTornFramesLeaveTheRestByteExact: the torn-write fault point
// still decides per record and isolates per group inside the one write: the
// segment holds exactly the frames of the records before each group's tear,
// byte for byte what writing them one at a time and truncating each tear
// away left, and only the torn groups fail.
func TestFileWALTornFramesLeaveTheRestByteExact(t *testing.T) {
	specs := checkpointSpecs()
	groups := pairGroups(1, 6)
	// A seed whose schedule tears some group mid-way and leaves another
	// whole, so both isolation directions are exercised.
	var inj *fault.Injector
	var sched []bool
	for seed := int64(1); ; seed++ {
		inj = fault.New(seed)
		inj.Enable(fault.DiskWriteTorn, fault.Rule{Prob: 0.25})
		sched = inj.Schedule(fault.DiskWriteTorn, 3*len(groups))
		if sched[1] && !sched[0] && !sched[3] && !sched[4] && !sched[5] {
			break
		}
	}
	var want []byte
	var wantFailed []bool
	hit := 0
	for _, g := range groups {
		failed := false
		for _, r := range g {
			torn := sched[hit]
			hit++
			if torn {
				failed = true
				break
			}
			payload, err := encodeRecord(r, specs)
			if err != nil {
				t.Fatal(err)
			}
			want = appendFrame(want, payload)
		}
		wantFailed = append(wantFailed, failed)
	}

	dir := t.TempDir()
	fs := &failingFS{}
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetInjector(inj)
	errs := w.AppendBatch(groups)
	for i, err := range errs {
		if failed := err != nil; failed != wantFailed[i] {
			t.Errorf("group %d: error %v, want failed=%v", i, err, wantFailed[i])
		}
		if err != nil && !errors.Is(err, ErrWriteFailed) {
			t.Errorf("group %d: %v, want ErrWriteFailed", i, err)
		}
	}
	if got := fs.files[len(fs.files)-1].writes; got != 1 {
		t.Errorf("torn batch issued %d writes, want 1", got)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("segment is %d bytes, want the %d bytes of the untorn frames", len(got), len(want))
	}
}

// TestFileWALCheckpointReclaimsRealBytes: the bytes a checkpoint reports
// reclaimed are the live segments' real size less the checkpoint
// segment's, from the running total that open, appends and rotation keep.
func TestFileWALCheckpointReclaimsRealBytes(t *testing.T) {
	dir := t.TempDir()
	specs := checkpointSpecs()
	open := func() *FileWAL {
		w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := open()
	w.AppendBatch(pairGroups(1, 20))
	w.Close()
	w = open()
	defer w.Close()
	for i := 21; i <= 40; i++ {
		w.AppendBatch(pairGroups(i, 1))
	}
	segBytes := func() int64 {
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range names {
			if _, ok := parseSegName(e.Name()); ok {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				total += info.Size()
			}
		}
		return total
	}
	before := segBytes()
	reclaimed, err := w.Checkpoint(specs)
	if err != nil {
		t.Fatal(err)
	}
	if after := segBytes(); reclaimed != before-after {
		t.Errorf("reclaimed %d, want %d (%d live bytes before, %d after)", reclaimed, before-after, before, after)
	}
}
