package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
)

// Deterministic tests of the pipelined group commit: a file layer whose
// syncs block until the test answers them lets each test hold a sync in
// flight, write behind it, and choose every sync's outcome and the order
// the outcomes arrive in.

// gatedFS is osFS whose segment syncs, while gated, each block until the
// test answers the call they announce on syncs. It also models how Linux
// reports writeback errors (errseq): writebackError records one, and the
// next fsync on each open file description reports it once — every
// description open when it was recorded sees it, not only the first to
// sync. Closing released lets every sync through, answered or not, so a
// failing test can still close its WAL.
type gatedFS struct {
	osFS
	gated    atomic.Bool
	syncs    chan syncCall
	released chan struct{}
	writes   atomic.Int64
	wbErrs   atomic.Int64 // writeback errors recorded so far
	shared   atomic.Bool  // some description ran two syncs at once
}

type gatedFile struct {
	walFile
	fs      *gatedFS
	mu      sync.Mutex
	seen    int64 // wbErrs as of this description's open or last check
	syncing atomic.Int32
}

// syncCall is one announced sync: the file description it runs on and the
// channel the test answers it through.
type syncCall struct {
	file  *gatedFile
	reply chan error
}

var errWriteback = errors.New("EIO: writeback failed")

func (fs *gatedFS) OpenAppend(path string) (walFile, int64, error) {
	f, size, err := fs.osFS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return &gatedFile{walFile: f, fs: fs, seen: fs.wbErrs.Load()}, size, nil
}

// writebackError records a failed writeback of the file's pages.
func (fs *gatedFS) writebackError() { fs.wbErrs.Add(1) }

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.walFile.Write(p)
}

func (f *gatedFile) Sync() error {
	if f.syncing.Add(1) > 1 {
		f.fs.shared.Store(true)
	}
	defer f.syncing.Add(-1)
	if f.fs.gated.Load() {
		call := syncCall{f, make(chan error, 1)}
		select {
		case f.fs.syncs <- call:
			select {
			case err := <-call.reply:
				if err != nil {
					return err
				}
			case <-f.fs.released:
			}
		case <-f.fs.released:
		}
	}
	if err := f.checkErr(); err != nil {
		return err
	}
	return f.walFile.Sync()
}

// checkErr is the check an fsync ends with: it reports, once, a writeback
// error recorded since this description's last check. A test calls it
// itself to have a sync consume an error now and return later.
func (f *gatedFile) checkErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.fs.wbErrs.Load(); n != f.seen {
		f.seen = n
		return errWriteback
	}
	return nil
}

const pipeTimeout = 10 * time.Second

// next returns the next sync to start.
func (fs *gatedFS) next(t *testing.T) syncCall {
	t.Helper()
	select {
	case call := <-fs.syncs:
		return call
	case <-time.After(pipeTimeout):
		t.Fatal("no sync started")
		return syncCall{}
	}
}

// noSyncStarts checks that no sync starts within a grace period — the only
// way to see that none does.
func (fs *gatedFS) noSyncStarts(t *testing.T, why string) {
	t.Helper()
	select {
	case <-fs.syncs:
		t.Fatal(why)
	case <-time.After(50 * time.Millisecond):
	}
}

// openGated opens a FileWAL in dir over a gated file layer. No file
// description may ever run two syncs at once.
func openGated(t *testing.T, dir string, segmentBytes int64) (*FileWAL, *gatedFS) {
	t.Helper()
	fs := &gatedFS{syncs: make(chan syncCall), released: make(chan struct{})}
	fs.gated.Store(true)
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: checkpointSpecs(), FS: fs, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(fs.released)
		w.Close()
		if fs.shared.Load() {
			t.Error("two syncs ran at once on one open file description")
		}
	})
	return w, fs
}

// inBackground runs f on its own goroutine; the channel yields its result.
func inBackground[T any](f func() T) <-chan T {
	ch := make(chan T, 1)
	go func() { ch <- f() }()
	return ch
}

func receive[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(pipeTimeout):
		t.Fatalf("%s: still blocked after %v", what, pipeTimeout)
		var zero T
		return zero
	}
}

// await polls cond, read under the WAL's lock, until it holds.
func await(t *testing.T, w *FileWAL, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(pipeTimeout); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// awaitInFlight waits until exactly n started syncs have not returned.
func awaitInFlight(t *testing.T, w *FileWAL, n int) {
	t.Helper()
	await(t, w, "syncs in flight settle", func() bool { return w.inFlight == n })
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// committedTxns reopens dir on the real file system and lists the
// transactions whose commit records it holds, in log order.
func committedTxns(t *testing.T, dir string) []histories.ActivityID {
	t.Helper()
	w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: checkpointSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out []histories.ActivityID
	for _, r := range w.Records() {
		if r.Kind == RecordCommit {
			out = append(out, r.Txn)
		}
	}
	return out
}

// mirrorTxns lists the transaction of every record in w's mirror.
func mirrorTxns(w *FileWAL) []histories.ActivityID {
	var txns []histories.ActivityID
	for _, r := range w.Records() {
		txns = append(txns, r.Txn)
	}
	return txns
}

func mustSucceed(t *testing.T, errs []error, what string) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: group %d: %v", what, i, err)
		}
	}
}

func mustFail(t *testing.T, errs []error, what string) {
	t.Helper()
	for i, err := range errs {
		if !errors.Is(err, ErrWriteFailed) {
			t.Errorf("%s: group %d = %v, want ErrWriteFailed", what, i, err)
		}
	}
}

// TestPipelineWriteOverlapsSync: batch 2's single write lands while batch
// 1's sync is blocked, and batch 2's own sync starts beside it, on a file
// description of its own.
func TestPipelineWriteOverlapsSync(t *testing.T) {
	dir := t.TempDir()
	w, fs := openGated(t, dir, 0)
	overlapped := obsFsyncOverlapped.Load()

	done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
	s1 := fs.next(t)
	writes := fs.writes.Load()
	wrote := inBackground(func() func() []error { return w.WriteBatch(pairGroups(2, 1)) })
	wait2 := receive(t, wrote, "batch 2's write behind batch 1's sync")
	if got := fs.writes.Load() - writes; got != 1 {
		t.Errorf("batch 2 issued %d writes, want 1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if payloads, _, torn := scanFrames(data); len(payloads) != 6 || torn {
		t.Errorf("segment holds %d frames (torn=%v) while batch 1's sync is blocked, want both batches' 6", len(payloads), torn)
	}

	done2 := inBackground(wait2)
	s2 := fs.next(t)
	if got := obsFsyncOverlapped.Load() - overlapped; got != 1 {
		t.Errorf("wal.fsync.overlapped moved by %d, want 1", got)
	}
	if s1.file == s2.file {
		t.Error("the overlapping sync runs on the same file description as the one in flight")
	}
	s1.reply <- nil
	s2.reply <- nil
	mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
	mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
	w.Close()
	if got, want := committedTxns(t, dir), []histories.ActivityID{"t1", "t2"}; !slices.Equal(got, want) {
		t.Errorf("reopen commits %v, want %v", got, want)
	}
}

// TestPipelineAcksInLogOrder: batch 2 is never acknowledged before batch 1,
// and the mirror grows in log order. A sync that started before batch 2 was
// written does not acknowledge it; one that started after covers batch 1
// as well, so it acknowledges both, even while batch 1's own sync is still
// in flight.
func TestPipelineAcksInLogOrder(t *testing.T) {
	want := []histories.ActivityID{"t1", "t1", "t1", "t2", "t2", "t2"}

	t.Run("earlier sync returns first", func(t *testing.T) {
		w, fs := openGated(t, t.TempDir(), 0)
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
		s2 := fs.next(t)

		s1.reply <- nil
		mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
		awaitInFlight(t, w, 1)
		if n := w.Len(); n != 3 {
			t.Fatalf("mirror holds %d records after batch 1's sync, want its 3", n)
		}
		select {
		case <-done2:
			t.Fatal("batch 2's wait returned on a sync that started before batch 2 was written")
		default:
		}
		s2.reply <- nil
		mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
		if got := mirrorTxns(w); !slices.Equal(got, want) {
			t.Errorf("mirror order %v, want %v", got, want)
		}
	})

	t.Run("later sync returns first", func(t *testing.T) {
		w, fs := openGated(t, t.TempDir(), 0)
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
		s2 := fs.next(t)

		s2.reply <- nil
		mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
		if got := mirrorTxns(w); !slices.Equal(got, want) {
			t.Errorf("mirror order %v with batch 1's sync in flight, want %v", got, want)
		}
		// Batch 1's waiter is the one running its sync, so it returns with it.
		s1.reply <- nil
		mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
		if n := w.Len(); n != 6 {
			t.Errorf("mirror holds %d records after batch 1's late sync, want 6", n)
		}
	})
}

// TestPipelineSyncFailureFailsLaterBatches: a failed sync of batch 1 — an
// OS error, or the fsync fault point — fails batch 2 too, although batch
// 2's own sync, still in flight, later succeeds. The segment is truncated
// to the last acknowledged byte, that late success is not taken for the
// next batch, a reopen shows neither batch, and the next batch succeeds.
func TestPipelineSyncFailureFailsLaterBatches(t *testing.T) {
	for _, mode := range []string{"os", "injected"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			w, fs := openGated(t, dir, 0)
			base := inBackground(w.WriteBatch(pairGroups(10, 1)))
			fs.next(t).reply <- nil
			mustSucceed(t, receive(t, base, "baseline wait"), "baseline")
			seg := filepath.Join(dir, segName(0))
			acked := fileSize(t, seg)

			done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
			s1 := fs.next(t)
			done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
			s2 := fs.next(t)
			switch mode {
			case "os":
				s1.reply <- errors.New("EIO")
			case "injected":
				// The fault point fails batch 1's sync as it returns.
				inj := fault.New(1)
				inj.Enable(fault.DiskFsyncFail, fault.Rule{Prob: 1, Limit: 1})
				w.SetInjector(inj)
				s1.reply <- nil
			}
			mustFail(t, receive(t, done1, "batch 1's wait"), "batch 1 after its sync failed")
			w.mu.Lock()
			failed := len(w.pending) == 0
			w.mu.Unlock()
			if !failed {
				t.Error("batch 2 is still pending after batch 1's sync failed")
			}
			if got := fileSize(t, seg); got != acked {
				t.Errorf("segment is %d bytes after the failure, want %d (the last acknowledged byte)", got, acked)
			}
			if n := w.Len(); n != 3 {
				t.Errorf("mirror holds %d records, want the baseline's 3", n)
			}

			done3 := inBackground(w.WriteBatch(pairGroups(3, 1)))
			s3 := fs.next(t)
			// Batch 2's own sync succeeds now. Having started before the
			// truncation, it is no proof that batch 3 is durable.
			s2.reply <- nil
			mustFail(t, receive(t, done2, "batch 2's wait"), "batch 2 after batch 1's sync failed")
			if n := w.Len(); n != 3 {
				t.Errorf("mirror holds %d records after a success from before the failure, want 3", n)
			}
			s3.reply <- nil
			mustSucceed(t, receive(t, done3, "the next batch's wait"), "next batch")
			fs.gated.Store(false)
			w.Close()
			if got, want := committedTxns(t, dir), []histories.ActivityID{"t10", "t3"}; !slices.Equal(got, want) {
				t.Errorf("reopen commits %v, want %v", got, want)
			}
		})
	}
}

// TestPipelineWritebackErrorReachesEverySync: Linux reports a writeback
// error once per open file description, so two syncs in flight on one
// description could have the one consume the error for bytes the other
// covers, and the other acknowledge them. Each sync in flight runs on its
// own description, and a description opened before a failure is not kept
// to report it again later.
func TestPipelineWritebackErrorReachesEverySync(t *testing.T) {
	t.Run("consumed elsewhere", func(t *testing.T) {
		dir := t.TempDir()
		w, fs := openGated(t, dir, 0)
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
		s2 := fs.next(t)
		fs.writebackError()
		// Batch 2's fsync ends its error check first, then is delayed;
		// batch 1's completes without an error of the device's own.
		err2 := s2.file.checkErr()
		if err2 == nil {
			t.Fatal("the writeback error did not reach batch 2's sync")
		}
		s1.reply <- nil
		mustFail(t, receive(t, done1, "batch 1's wait"), "batch 1 after a writeback error")
		s2.reply <- err2
		mustFail(t, receive(t, done2, "batch 2's wait"), "batch 2 after a writeback error")
		fs.gated.Store(false)
		w.Close()
		if got := committedTxns(t, dir); len(got) != 0 {
			t.Errorf("reopen commits %v, want none", got)
		}
	})

	t.Run("old spare replaced", func(t *testing.T) {
		w, fs := openGated(t, t.TempDir(), 0)
		// An overlapping pair opens the second description.
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
		s2 := fs.next(t)
		s1.reply <- nil
		s2.reply <- nil
		mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
		mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
		spare := s2.file

		// Batch 3 syncs alone, and its own description reports a
		// writeback error; the idle spare has not seen it.
		done3 := inBackground(w.WriteBatch(pairGroups(3, 1)))
		s3 := fs.next(t)
		fs.writebackError()
		s3.reply <- nil
		mustFail(t, receive(t, done3, "batch 3's wait"), "batch 3 after a writeback error")

		done4 := inBackground(w.WriteBatch(pairGroups(4, 1)))
		s4 := fs.next(t)
		done5 := inBackground(w.WriteBatch(pairGroups(5, 1)))
		s5 := fs.next(t)
		if s5.file == spare {
			t.Error("the overlapping sync reuses a description opened before the failure")
		}
		s4.reply <- nil
		s5.reply <- nil
		mustSucceed(t, receive(t, done4, "batch 4's wait"), "batch 4")
		mustSucceed(t, receive(t, done5, "batch 5's wait"), "batch 5 written after the failure")
	})
}

// TestPipelineDrainsBeforeSegmentChange: rotation, Checkpoint and Close
// issued while a sync is in flight wait for it, lose no record, and leave
// none in a reclaimed segment.
func TestPipelineDrainsBeforeSegmentChange(t *testing.T) {
	draining := func(w *FileWAL) func() bool { return func() bool { return w.draining > 0 } }

	t.Run("rotate", func(t *testing.T) {
		dir := t.TempDir()
		w, fs := openGated(t, dir, 1) // every acknowledged batch rotates
		// Unwaited writes past the threshold (aborts) neither rotate nor
		// sync: rotation falls to a waiter.
		wrote := inBackground(func() bool {
			w.WriteBatch(pairGroups(1, 1))
			w.WriteBatch(pairGroups(2, 1))
			return true
		})
		select {
		case <-fs.syncs:
			t.Fatal("an unwaited write past the rotation threshold started a sync")
		case <-wrote:
		case <-time.After(pipeTimeout):
			t.Fatal("unwaited writes blocked")
		}

		done3 := inBackground(w.WriteBatch(pairGroups(3, 1)))
		s3 := fs.next(t)
		done4 := inBackground(w.WriteBatch(pairGroups(4, 1)))
		s4 := fs.next(t)
		s3.reply <- nil
		// Batch 3's waiter rotates, and drains first: batch 4's sync of
		// segment 0 is still in flight.
		await(t, w, "the rotation drains", draining(w))
		if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
			t.Errorf("segment 1 exists while a sync of segment 0 is in flight (err=%v)", err)
		}
		s4.reply <- nil
		mustSucceed(t, receive(t, done3, "batch 3's wait"), "batch 3")
		mustSucceed(t, receive(t, done4, "batch 4's wait"), "batch 4")
		w.Close()
		seg0, err := w.readSegment(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg0.records) != 12 || seg0.torn {
			t.Errorf("sealed segment holds %d records (torn=%v), want all four batches' 12", len(seg0.records), seg0.torn)
		}
		if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
			t.Errorf("no rotation after the drain: %v", err)
		}
		if got, want := committedTxns(t, dir), []histories.ActivityID{"t1", "t2", "t3", "t4"}; !slices.Equal(got, want) {
			t.Errorf("reopen commits %v, want %v", got, want)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		w, fs := openGated(t, dir, 0)
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		fs.gated.Store(false) // the checkpoint's own syncs pass straight through
		cp := inBackground(func() error { _, err := w.Checkpoint(checkpointSpecs()); return err })
		await(t, w, "the checkpoint drains", draining(w))
		s1.reply <- nil
		if err := receive(t, cp, "checkpoint"); err != nil {
			t.Fatal(err)
		}
		mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
		w.Close()
		if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
			t.Errorf("segment 0 survived the checkpoint (err=%v)", err)
		}
		reopened := openTestWAL(t, dir, checkpointSpecs())
		states, err := Restart(reopened, checkpointSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if a, b := states["a"].(adts.AccountState).Balance(), states["b"].(adts.AccountState).Balance(); a != 1 || b != 1 {
			t.Errorf("balances %d/%d after checkpoint + reopen, want 1/1 (batch 1 lost)", a, b)
		}
	})

	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		w, fs := openGated(t, dir, 0)
		done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
		s1 := fs.next(t)
		w.WriteBatch(pairGroups(2, 1)) // nobody waits for batch 2
		fs.gated.Store(false)          // the drain's own sync of batch 2 passes through
		closed := inBackground(w.Close)
		await(t, w, "close drains", draining(w))
		s1.reply <- nil
		if err := receive(t, closed, "close"); err != nil {
			t.Fatal(err)
		}
		mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
		if got, want := committedTxns(t, dir), []histories.ActivityID{"t1", "t2"}; !slices.Equal(got, want) {
			t.Errorf("reopen commits %v, want %v", got, want)
		}
	})
}

// TestPipelineAtMostTwoSyncsInFlight: two syncs may overlap, not more.
// Batches written behind them wait, and then share the next sync.
func TestPipelineAtMostTwoSyncsInFlight(t *testing.T) {
	w, fs := openGated(t, t.TempDir(), 0)
	done1 := inBackground(w.WriteBatch(pairGroups(1, 1)))
	s1 := fs.next(t)
	done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
	s2 := fs.next(t)
	done3 := inBackground(w.WriteBatch(pairGroups(3, 1)))
	done4 := inBackground(w.WriteBatch(pairGroups(4, 1)))
	fs.noSyncStarts(t, "a third sync started beside two in flight")

	s1.reply <- nil
	mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
	s3 := fs.next(t)
	fs.noSyncStarts(t, "batches 3 and 4 each started a sync instead of sharing one")
	s2.reply <- nil
	s3.reply <- nil
	mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
	mustSucceed(t, receive(t, done3, "batch 3's wait"), "batch 3")
	mustSucceed(t, receive(t, done4, "batch 4's wait"), "batch 4")
}

// TestPipelineUnwaitedBatchRidesTheNextSync: a batch nobody waits for (an
// abort record) holds up no later wait — the next sync covers it. A wait
// whose batch a sync in flight covers waits for that sync rather than
// starting one, and a wait issued after a covering sync returned needs
// none at all.
func TestPipelineUnwaitedBatchRidesTheNextSync(t *testing.T) {
	w, fs := openGated(t, t.TempDir(), 0)
	covered := obsFsyncCovered.Load()
	wait1 := w.WriteBatch(pairGroups(1, 1))
	done2 := inBackground(w.WriteBatch(pairGroups(2, 1)))
	s2 := fs.next(t)
	done1 := inBackground(wait1)
	fs.noSyncStarts(t, "a wait started a sync beside one that covers its batch")
	s2.reply <- nil
	mustSucceed(t, receive(t, done2, "batch 2's wait"), "batch 2")
	mustSucceed(t, receive(t, done1, "batch 1's wait"), "batch 1")
	if n := w.Len(); n != 6 {
		t.Errorf("mirror holds %d records, want both batches' 6", n)
	}

	wait3 := w.WriteBatch(pairGroups(3, 1))
	done4 := inBackground(w.WriteBatch(pairGroups(4, 1)))
	fs.next(t).reply <- nil
	mustSucceed(t, receive(t, done4, "batch 4's wait"), "batch 4")
	mustSucceed(t, receive(t, inBackground(wait3), "batch 3's late wait"), "batch 3")
	if got := obsFsyncCovered.Load() - covered; got != 2 {
		t.Errorf("wal.fsync.covered moved by %d, want 2", got)
	}
}
