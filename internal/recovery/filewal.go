package recovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Durability observability: fsync latency, how many transactions the
// forced writes amortise, and how the durability stage overlaps: syncs
// started while another was still in flight, and waits a sync started by
// someone else satisfied.
var (
	obsFsyncLatency    = obs.Default.Histogram("wal.fsync")
	obsFsyncBatchSize  = obs.Default.Counter("wal.fsync.batch_size")
	obsFsyncCount      = obs.Default.Counter("wal.fsync.count")
	obsFsyncOverlapped = obs.Default.Counter("wal.fsync.overlapped")
	obsFsyncCovered    = obs.Default.Counter("wal.fsync.covered")
)

// manifestName is the checkpoint manifest file inside a WAL directory.
const manifestName = "MANIFEST"

// segPrefix/segSuffix frame segment file names: wal-<8-digit-seq>.seg.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// defaultSegmentBytes is the rotation threshold for the active segment.
const defaultSegmentBytes = 4 << 20

// maxSyncsInFlight caps the fsyncs of the active segment running at once:
// two let batch N+1's fsync overlap batch N's. Each runs on a handle of its
// own (FileWAL.handles).
const maxSyncsInFlight = 2

// errInjectedFsync is the OS error the fsync fault point stands in for.
var errInjectedFsync = errors.New("injected fault")

// walFile is the slice of *os.File the WAL needs — the injectable seam for
// simulating write and fsync failures from the OS side in tests.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// walFS is the file-system layer beneath FileWAL. Production uses osFS;
// tests substitute implementations whose files fail to write or sync.
type walFS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	OpenAppend(path string) (walFile, int64, error)
	Truncate(path string, size int64) error
	SyncDir(dir string) error
}

// osFS is walFS over the real file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Rename(oldPath, newPath string) error   { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error               { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) OpenAppend(path string) (walFile, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// manifest is the checkpoint manifest: recovery scans segments with
// seq >= Base in ascending order; everything below Base is reclaimed
// space. The manifest is replaced atomically (tmp + fsync + rename + dir
// fsync), so its update is the checkpoint's durability point: a crash
// before the rename leaves the old log authoritative and the half-written
// checkpoint segment garbage.
type manifest struct {
	Base uint64 `json:"base"`
}

// FileWALOptions configures OpenFileWAL.
type FileWALOptions struct {
	// Dir is the WAL directory; created if absent.
	Dir string
	// Specs names the spec (and thus the StateCodec) of every object that
	// may appear in a checkpoint snapshot on disk. Needed only to reopen a
	// directory whose log contains a checkpoint record; appends and
	// checkpoints taken through this handle use the specs passed to
	// Checkpoint itself.
	Specs map[histories.ObjectID]spec.SerialSpec
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// Injector is an optional deterministic fault injector (see
	// fault.DiskWriteTorn, fault.DiskFsyncFail, fault.DiskCheckpointTorn).
	Injector *fault.Injector
	// FS substitutes the file-system layer (tests); nil means the OS.
	FS walFS
}

// FileWAL is the file-backed segmented Backend: CRC32C-framed records,
// pipelined group commit (one write per WriteBatch, fsyncs that overlap the
// next batch's write), segment rotation with an on-disk checkpoint
// manifest, and recovery that scans segments in manifest order and trims
// the torn tail of the final segment at the first bad frame.
//
// It mirrors the durable records in the log core it shares with the
// in-memory Disk, so Records(), Len() and what a checkpoint compacts the
// log to are the same code; the mirror takes records in log order and only
// once their bytes are durable.
type FileWAL struct {
	memLog // mirror of the durable log
	dir    string
	fs     walFS
	specs  map[histories.ObjectID]spec.SerialSpec
	segMax int64

	active      walFile // current segment, opened for append
	activeSeq   uint64
	activeLen   int64  // bytes written to the active segment
	sealedBytes int64  // size of the live segments before the active one
	batch       []byte // WriteBatch's frame buffer, reused across batches
	closed      bool

	// The durability stage. Offsets are into the active segment: rotation
	// and checkpoint drain first, so no written batch outlives its segment.
	cond     *sync.Cond      // on mu: broadcast when a sync returns or a drain ends
	synced   int64           // watermark: every byte below it is durable and acknowledged
	started  int64           // the highest target of a sync started since the last failure
	pending  []*writtenBatch // written, not yet acknowledged, in log order
	inFlight int             // started syncs not yet returned
	epoch    uint64          // bumped by every sync failure
	draining int             // drains in progress: no batch is written, no other sync starts
	// The sync handles, one per sync that may be in flight. Linux reports
	// a writeback error to one fsync per open file description (errseq), so
	// two fsyncs sharing a descriptor could see the error consumed by one
	// and success reported by the other; one descriptor per concurrent sync
	// keeps every error reaching every sync that covers its bytes. handles[0]
	// is active itself; handles[1] is a second descriptor on the active
	// segment, opened by the first sync that overlaps another.
	handles [maxSyncsInFlight]walFile
	busy    [maxSyncsInFlight]bool
}

// writtenBatch is one WriteBatch whose bytes are in the segment but not yet
// known durable.
type writtenBatch struct {
	end     int64    // segment offset just past its last byte
	records []Record // what the mirror takes once the batch is durable
	errs    []error  // per-group outcome, final once done
	done    bool     // acknowledged durable, or failed
	durable bool
}

var _ Backend = (*FileWAL)(nil)

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// OpenFileWAL opens (or creates) the segmented WAL in opts.Dir and
// recovers its durable contents: the manifest names the base segment,
// segments are scanned in ascending sequence order, a torn tail in the
// final segment is physically truncated away, and damage anywhere else is
// ErrCorrupt. The returned handle is ready for appends.
func OpenFileWAL(opts FileWALOptions) (*FileWAL, error) {
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("recovery: OpenFileWAL: empty Dir")
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("recovery: OpenFileWAL: %w", err)
	}
	w := &FileWAL{
		dir:    opts.Dir,
		fs:     fs,
		specs:  opts.Specs,
		segMax: opts.SegmentBytes,
	}
	w.inj = opts.Injector
	w.cond = sync.NewCond(&w.mu)
	if w.segMax <= 0 {
		w.segMax = defaultSegmentBytes
	}
	if err := w.load(); err != nil {
		return nil, err
	}
	return w, nil
}

// load scans the directory and rebuilds the in-memory mirror.
func (w *FileWAL) load() error {
	var m manifest
	if b, err := w.fs.ReadFile(filepath.Join(w.dir, manifestName)); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("recovery: %s: %w", manifestName, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("recovery: read manifest: %w", err)
	}
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("recovery: scan %s: %w", w.dir, err)
	}
	var seqs []uint64
	for _, name := range names {
		seq, ok := parseSegName(name)
		if !ok {
			continue
		}
		if seq < m.Base {
			// Reclaimed by a checkpoint whose cleanup was interrupted.
			_ = w.fs.Remove(filepath.Join(w.dir, segName(seq)))
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	// An unmanifested checkpoint segment — one that begins with a
	// checkpoint record but that the manifest does not name as base — is a
	// checkpoint whose durability point (the manifest rename) was never
	// reached. The log before it is complete and authoritative; the
	// aborted attempt is garbage. It can only be the final segment:
	// nothing is ever appended after a checkpoint write that did not
	// reach its manifest update. The final segment read here is the one
	// loaded below, so every segment is read once.
	var final segment
	for len(seqs) > 0 {
		last := seqs[len(seqs)-1]
		s, err := w.readSegment(last)
		if err != nil {
			return err
		}
		if last == m.Base || len(s.records) == 0 || s.records[0].Kind != RecordCheckpoint {
			final = s
			break
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segName(last))); err != nil {
			return fmt.Errorf("recovery: drop aborted checkpoint segment: %w", err)
		}
		seqs = seqs[:len(seqs)-1]
	}

	// Every segment but the final one was fsynced whole before the next
	// was born, so damage there is ErrCorrupt. In the final segment a torn
	// tail is trimmed — physically truncated — because the write-ahead
	// protocol guarantees no transaction whose records sit past the tear
	// was ever acknowledged.
	for i, seq := range seqs {
		s := final
		if i < len(seqs)-1 {
			var err error
			if s, err = w.readSegment(seq); err != nil {
				return err
			}
			if s.torn {
				return fmt.Errorf("%w: segment %d torn at offset %d but is not the final segment", ErrCorrupt, seq, s.valid)
			}
			w.sealedBytes += int64(s.valid)
		} else if s.torn {
			if err := w.fs.Truncate(filepath.Join(w.dir, segName(seq)), int64(s.valid)); err != nil {
				return fmt.Errorf("recovery: trim torn tail of segment %d: %w", seq, err)
			}
		}
		w.records.append(s.records...)
	}

	// Open (or create) the active segment for appends.
	var activeSeq uint64 = m.Base
	if len(seqs) > 0 {
		activeSeq = seqs[len(seqs)-1]
	}
	f, size, err := w.fs.OpenAppend(filepath.Join(w.dir, segName(activeSeq)))
	if err != nil {
		return fmt.Errorf("recovery: open active segment: %w", err)
	}
	w.useSegmentLocked(f, activeSeq, size)
	if len(seqs) == 0 {
		// Fresh directory: make the first segment's existence durable.
		if err := w.fs.SyncDir(w.dir); err != nil {
			w.active.Close()
			return fmt.Errorf("recovery: sync dir: %w", err)
		}
	}
	return nil
}

// segment is one segment file as the recovery scan sees it: the records of
// its checksum-valid prefix, that prefix's length, and whether bytes that
// do not form a valid frame follow it.
type segment struct {
	records []Record
	valid   int
	torn    bool
}

// readSegment reads and decodes segment seq.
func (w *FileWAL) readSegment(seq uint64) (segment, error) {
	data, err := w.fs.ReadFile(filepath.Join(w.dir, segName(seq)))
	if err != nil {
		return segment{}, fmt.Errorf("recovery: read segment %d: %w", seq, err)
	}
	payloads, valid, torn := scanFrames(data)
	s := segment{records: make([]Record, len(payloads)), valid: valid, torn: torn}
	for i, p := range payloads {
		if s.records[i], err = decodeRecord(p, w.specs); err != nil {
			return segment{}, fmt.Errorf("segment %d: %w", seq, err)
		}
	}
	return s, nil
}

// Dir returns the WAL directory.
func (w *FileWAL) Dir() string { return w.dir }

// Close implements Backend: it drains the durability stage — every written
// batch is forced and acknowledged (or failed) — and closes the active
// segment.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.drainLocked()
	if w.closed {
		return nil
	}
	w.closed = true
	w.closeSparesLocked()
	return w.active.Close()
}

// Append implements Backend: one record, forced durable before return.
func (w *FileWAL) Append(r Record) error { return w.WriteBatch([][]Record{{r}})()[0] }

// AppendBatch implements Backend: the write stage and the durability stage
// back to back.
func (w *FileWAL) AppendBatch(groups [][]Record) []error { return w.WriteBatch(groups)() }

// WriteBatch implements Backend — the write stage of group commit. Every
// group's frames go into one buffer and one write puts the batch in the
// active segment; the returned wait is the durability stage. Fault
// isolation per record mirrors the in-memory disk: a record that cannot be
// encoded, or whose write the torn fault point tears, fails its group alone
// — the group's earlier frames stay, exactly the unacknowledged prefix a
// solo committer would leave, and later groups follow them. The torn frame
// itself never reaches the file: on a real disk a torn tail only survives a
// crash, and a live process that saw its write fail repairs it. A failed or
// short OS write fails every group and truncates the segment back to the
// batch start: a commit record whose force failed must not be durable, or a
// transaction the client saw abort could resurrect at restart.
//
// WriteBatch itself never runs an fsync; it blocks on one only while a
// drain (rotation, Checkpoint, Close) is in progress.
func (w *FileWAL) WriteBatch(groups [][]Record) (wait func() []error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	errs := make([]error, len(groups))
	resolved := func() []error { return errs }
	for w.draining > 0 {
		w.cond.Wait()
	}
	if w.closed {
		for i := range errs {
			errs[i] = fmt.Errorf("%w: wal closed", ErrWriteFailed)
		}
		return resolved
	}
	obsWALBatchSize.Observe(int64(len(groups)))

	buf := w.batch[:0]
	var durable []Record
	for i, group := range groups {
		for j := range group {
			var err error
			if buf, err = w.frameLocked(buf, &group[j]); err != nil {
				errs[i] = err
				break
			}
			durable = append(durable, Record{})
			w.copyRecord(&durable[len(durable)-1], &group[j])
		}
	}
	w.batch = buf[:0]
	if len(buf) == 0 {
		return resolved
	}
	if err := w.writeLocked(buf); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return resolved
	}
	b := &writtenBatch{end: w.activeLen, records: durable, errs: errs}
	w.pending = append(w.pending, b)
	return func() []error { return w.wait(b) }
}

// frameLocked appends r's frame to buf, applying the torn-write fault
// point. On failure buf comes back at its old length.
func (w *FileWAL) frameLocked(buf []byte, r *Record) ([]byte, error) {
	out, err := appendRecordFrame(buf, *r, w.specs)
	if err != nil {
		return buf, fmt.Errorf("%w: %v", ErrWriteFailed, err)
	}
	if w.inj.Fires(fault.DiskWriteTorn) {
		obsWALTorn.Inc()
		return out[:len(buf)], fmt.Errorf("%w: torn write of record for %s", ErrWriteFailed, r.Txn)
	}
	return out, nil
}

// writeLocked writes a framed batch to the active segment in one write. On
// failure the segment is truncated back to where the batch began.
func (w *FileWAL) writeLocked(buf []byte) error {
	start := w.activeLen
	n, err := w.active.Write(buf)
	w.activeLen += int64(n)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		obsWALFailed.Inc()
		if terr := w.active.Truncate(start); terr == nil {
			w.activeLen = start
		}
		return fmt.Errorf("%w: write: %v", ErrWriteFailed, err)
	}
	obsWALBytes.Add(int64(n))
	return nil
}

// wait is a written batch's durability stage. It returns once every byte up
// to the batch's end is durable — forced by a sync of its own, or by any
// sync started after the batch was written — or once a sync failure has
// failed it. A batch nobody waits for is acknowledged by the next sync that
// covers it and never holds up a later wait. A waiter whose batch made the
// active segment durable past the rotation threshold rotates it before
// returning, so rotation, and the fsyncs it forces, fall to a committer that
// waits anyway, never to an unwaited write.
func (w *FileWAL) wait(b *writtenBatch) []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	own := false
	for !b.done {
		if w.draining == 0 && w.started < b.end && w.inFlight < maxSyncsInFlight && w.syncLocked() {
			own = true
			continue
		}
		w.cond.Wait()
	}
	if b.durable && !own {
		obsFsyncCovered.Inc()
	}
	if b.durable && !w.closed && w.activeLen >= w.segMax {
		w.rotateLocked()
	}
	return b.errs
}

// syncLocked forces the active segment up to everything written so far, on
// an idle sync handle, and reports whether it could claim one (opening the
// second handle can fail). The fsync runs with w.mu released, so the next
// batch's write — and that batch's own fsync — can overlap it.
//
// A success makes every byte written before the sync started durable, and
// is applied as soon as it returns, whatever a sync still in flight will
// report: the two run on separate descriptors, so an error in these bytes
// reaches this sync too rather than only the other. Only a failure in
// between voids it (the epoch moved: the bytes it covered were truncated
// and may have been rewritten). A failure, from the OS or the fsync fault
// point (decided as the sync returns, so it can fail a sync that was in
// flight), fails every unacknowledged batch at once (failLocked).
func (w *FileWAL) syncLocked() bool {
	h := 0
	for w.busy[h] {
		h++
	}
	if w.handles[h] == nil {
		f, _, err := w.fs.OpenAppend(filepath.Join(w.dir, segName(w.activeSeq)))
		if err != nil {
			return false
		}
		w.handles[h] = f
	}
	f, target, epoch := w.handles[h], w.activeLen, w.epoch
	if w.inFlight > 0 {
		obsFsyncOverlapped.Inc()
	}
	w.busy[h] = true
	w.inFlight++
	w.started = target
	w.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	w.mu.Lock()
	w.busy[h] = false
	w.inFlight--
	if err == nil && w.inj.Fires(fault.DiskFsyncFail) {
		err = errInjectedFsync
	}
	if err != nil {
		obsWALFailed.Inc()
		w.failLocked(fmt.Errorf("%w: fsync: %v", ErrWriteFailed, err))
	} else {
		obsFsyncLatency.Observe(elapsed.Nanoseconds())
		obsFsyncCount.Inc()
		if epoch == w.epoch && target > w.synced {
			w.synced = target
			w.ackLocked()
		}
	}
	if epoch != w.epoch {
		// A spare opened before a failure would report its error again at
		// its next fsync, failing batches written long after; so every
		// idle spare goes once the failing sync returns, and a spare in
		// flight then goes when it returns. (The first handle is the
		// writer and stays; its next fsync may report the error once
		// more, conservatively.)
		w.closeSparesLocked()
	}
	w.cond.Broadcast()
	return true
}

// ackLocked acknowledges the batches below the watermark, in log order, into
// the mirror.
func (w *FileWAL) ackLocked() {
	acked := 0
	for _, b := range w.pending {
		if b.end > w.synced {
			break
		}
		w.records.append(b.records...)
		obsWALAppends.Add(int64(len(b.records)))
		obsFsyncBatchSize.Add(int64(len(b.errs)))
		b.done, b.durable = true, true
		acked++
	}
	w.pending = append(w.pending[:0], w.pending[acked:]...)
}

// failLocked fails every batch not yet acknowledged, including batches a
// sync still in flight covers: the failure may have lost any byte written
// since the watermark. The segment is truncated back to the watermark so
// the next write starts clean, and the epoch moves on so no success of a
// sync started before the truncation is applied to bytes written after it.
func (w *FileWAL) failLocked(err error) {
	for _, b := range w.pending {
		for i := range b.errs {
			if b.errs[i] == nil {
				b.errs[i] = err
			}
		}
		b.done = true
	}
	w.pending = nil
	if w.activeLen > w.synced {
		if terr := w.active.Truncate(w.synced); terr == nil {
			w.activeLen = w.synced
		}
	}
	w.epoch++
	w.started = w.synced
}

// closeSparesLocked closes the idle sync handles other than the writer; the
// next overlapping sync opens a fresh one.
func (w *FileWAL) closeSparesLocked() {
	for h := 1; h < maxSyncsInFlight; h++ {
		if w.handles[h] != nil && !w.busy[h] {
			w.handles[h].Close()
			w.handles[h] = nil
		}
	}
}

// drainLocked waits out every started sync and forces whatever is still
// unsynced, so every written batch is acknowledged or failed and no sync
// holds the active segment: rotation, checkpoint and close, which swap or
// close it, drain first. While a drain runs no batch is written and no
// other sync starts.
func (w *FileWAL) drainLocked() {
	w.draining++
	for w.inFlight > 0 {
		w.cond.Wait()
	}
	if !w.closed && w.activeLen > w.synced {
		w.syncLocked()
	}
	w.draining--
	w.cond.Broadcast()
}

// useSegmentLocked makes f, size bytes long and durable throughout, the
// active segment seq and its first sync handle.
func (w *FileWAL) useSegmentLocked(f walFile, seq uint64, size int64) {
	w.active, w.activeSeq, w.activeLen = f, seq, size
	w.synced, w.started = size, size
	w.handles[0] = f
}

// rotateLocked starts a fresh segment once the active one is over the
// rotation threshold. It drains first, so the old segment is durable and
// acknowledged whole and no sync still holds it; the new file's directory
// entry is fsynced before any record lands in it, so the
// scan-in-sequence-order recovery invariant (only the final segment may be
// torn) holds across rotation.
func (w *FileWAL) rotateLocked() {
	w.drainLocked()
	if w.closed || w.activeLen < w.segMax || w.activeLen != w.synced {
		// Closed, rotated or compacted meanwhile, or holding bytes a
		// failure could not truncate away: keep the segment.
		return
	}
	next := w.activeSeq + 1
	f, size, err := w.fs.OpenAppend(filepath.Join(w.dir, segName(next)))
	if err != nil {
		return // keep appending to the oversized segment
	}
	if size > 0 {
		// A rotation target can only pre-exist as garbage.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return
		}
		size = 0
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		_ = w.fs.Remove(filepath.Join(w.dir, segName(next)))
		return
	}
	w.closeSparesLocked()
	w.active.Close()
	w.sealedBytes += w.activeLen
	w.useSegmentLocked(f, next, size)
}

// Checkpoint implements Backend. See CheckpointHosted.
func (w *FileWAL) Checkpoint(specs map[histories.ObjectID]spec.SerialSpec) (int64, error) {
	return w.checkpoint(specs, nil, false)
}

// CheckpointHosted implements Backend: the shared log core compacts the
// log (see Fold.compact) and installSegmentLocked makes the result durable.
// It returns the real bytes reclaimed. Under fault.DiskCheckpointTorn the
// checkpoint segment is abandoned before its manifest update — exactly the
// crash the recovery scan repairs — and the uncompacted log stays
// authoritative.
func (w *FileWAL) CheckpointHosted(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (int64, error) {
	return w.checkpoint(specs, initialHosted, true)
}

func (w *FileWAL) checkpoint(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool, withHosted bool) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Drain first: a batch written but not yet acknowledged is not in the
	// mirror the compaction folds, and its bytes are in a segment the
	// install reclaims.
	if !w.closed {
		w.drainLocked()
	}
	if w.closed {
		return 0, fmt.Errorf("%w: wal closed", ErrWriteFailed)
	}
	return w.checkpointLocked(specs, initialHosted, withHosted, func(compacted []Record) (int64, int64, error) {
		return w.installSegmentLocked(compacted, specs)
	})
}

// installSegmentLocked is the file install: the compacted log is written to
// a fresh segment, the manifest is atomically updated to name it as base
// (the checkpoint's durability point), and every older segment is reclaimed.
func (w *FileWAL) installSegmentLocked(compacted []Record, specs map[histories.ObjectID]spec.SerialSpec) (reclaimed, written int64, err error) {
	// Serialize the whole compacted log up front: an unencodable state
	// (spec without a codec) must fail the checkpoint before any disk
	// mutation.
	var buf []byte
	for _, r := range compacted {
		if buf, err = appendRecordFrame(buf, r, specs); err != nil {
			return 0, 0, fmt.Errorf("recovery: checkpoint: %w", err)
		}
	}

	before := w.sealedBytes + w.activeLen
	next := w.activeSeq + 1
	nextPath := filepath.Join(w.dir, segName(next))
	f, size, err := w.fs.OpenAppend(nextPath)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: checkpoint segment: %v", ErrWriteFailed, err)
	}
	// abandon discards the attempt: it never reached its durability point,
	// so the repair is the recovery scan's — drop the segment and keep the
	// full uncompacted log authoritative.
	abandon := func(err error) (int64, int64, error) {
		f.Close()
		_ = w.fs.Remove(nextPath)
		return 0, 0, err
	}
	if size > 0 {
		// Leftovers of an earlier abandoned attempt at this sequence.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return 0, 0, fmt.Errorf("%w: checkpoint segment truncate: %v", ErrWriteFailed, err)
		}
	}
	if w.inj.Fires(fault.DiskCheckpointTorn) {
		// The checkpoint segment tears before its manifest update.
		_, _ = f.Write(buf[:len(buf)/2])
		obsCheckpointTorn.Inc()
		return abandon(fmt.Errorf("%w: torn checkpoint", ErrWriteFailed))
	}
	if _, err := f.Write(buf); err != nil {
		obsCheckpointTorn.Inc()
		return abandon(fmt.Errorf("%w: checkpoint write: %v", ErrWriteFailed, err))
	}
	if err := f.Sync(); err != nil {
		obsCheckpointTorn.Inc()
		return abandon(fmt.Errorf("%w: checkpoint fsync: %v", ErrWriteFailed, err))
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return abandon(fmt.Errorf("%w: checkpoint dir fsync: %v", ErrWriteFailed, err))
	}
	if err := w.writeManifestLocked(manifest{Base: next}); err != nil {
		return abandon(err)
	}

	// The manifest rename committed the checkpoint: everything below next
	// is reclaimable space.
	w.closeSparesLocked()
	w.active.Close()
	if names, err := w.fs.ReadDir(w.dir); err == nil {
		for _, name := range names {
			if seq, ok := parseSegName(name); ok && seq < next {
				_ = w.fs.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	written = int64(len(buf))
	w.sealedBytes = 0
	w.useSegmentLocked(f, next, written)
	return before - written, written, nil
}

// writeManifestLocked atomically replaces the manifest: tmp write, fsync,
// rename, dir fsync.
func (w *FileWAL) writeManifestLocked(m manifest) error {
	body := []byte(fmt.Sprintf("{\"base\":%d}\n", m.Base))
	tmp := filepath.Join(w.dir, manifestName+".tmp")
	f, _, err := w.fs.OpenAppend(tmp)
	if err != nil {
		return fmt.Errorf("%w: manifest tmp: %v", ErrWriteFailed, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return fmt.Errorf("%w: manifest tmp truncate: %v", ErrWriteFailed, err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return fmt.Errorf("%w: manifest write: %v", ErrWriteFailed, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%w: manifest fsync: %v", ErrWriteFailed, err)
	}
	f.Close()
	if err := w.fs.Rename(tmp, filepath.Join(w.dir, manifestName)); err != nil {
		return fmt.Errorf("%w: manifest rename: %v", ErrWriteFailed, err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("%w: manifest dir fsync: %v", ErrWriteFailed, err)
	}
	return nil
}
