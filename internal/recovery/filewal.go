package recovery

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Durability observability: fsync latency and how many transactions each
// forced write amortises. One fsync per AppendBatch is the whole point of
// group commit; these two instruments make the batching visible in
// Metrics() snapshots and bankbench -json.
var (
	obsFsyncLatency   = obs.Default.Histogram("wal.fsync")
	obsFsyncBatchSize = obs.Default.Counter("wal.fsync.batch_size")
	obsFsyncCount     = obs.Default.Counter("wal.fsync.count")
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
// fsync-batched group commit (one fsync per AppendBatch), segment rotation
// with an on-disk checkpoint manifest, and recovery that scans segments in
// manifest order and trims the torn tail of the final segment at the
// first bad frame.
//
// It mirrors the durable records in the log core it shares with the
// in-memory Disk, so Records(), Len() and what a checkpoint compacts the
// log to are the same code; the mirror is only ever updated after the
// corresponding bytes are durable.
type FileWAL struct {
	memLog // mirror of the durable log
	dir    string
	fs     walFS
	specs  map[histories.ObjectID]spec.SerialSpec
	segMax int64

	active    walFile // current segment, opened for append
	activeSeq uint64
	activeLen int64
	closed    bool
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
	// reach its manifest update.
	for len(seqs) > 0 {
		last := seqs[len(seqs)-1]
		if last == m.Base {
			break
		}
		aborted, err := w.isAbortedCheckpoint(last)
		if err != nil {
			return err
		}
		if !aborted {
			break
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segName(last))); err != nil {
			return fmt.Errorf("recovery: drop aborted checkpoint segment: %w", err)
		}
		seqs = seqs[:len(seqs)-1]
	}

	for i, seq := range seqs {
		final := i == len(seqs)-1
		if err := w.loadSegment(seq, final); err != nil {
			return err
		}
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
	w.active, w.activeSeq, w.activeLen = f, activeSeq, size
	if len(seqs) == 0 {
		// Fresh directory: make the first segment's existence durable.
		if err := w.fs.SyncDir(w.dir); err != nil {
			w.active.Close()
			return fmt.Errorf("recovery: sync dir: %w", err)
		}
	}
	return nil
}

// isAbortedCheckpoint reports whether segment seq begins with a checkpoint
// record.
func (w *FileWAL) isAbortedCheckpoint(seq uint64) (bool, error) {
	data, err := w.fs.ReadFile(filepath.Join(w.dir, segName(seq)))
	if err != nil {
		return false, fmt.Errorf("recovery: read segment %d: %w", seq, err)
	}
	payloads, _, _ := scanFrames(data)
	if len(payloads) == 0 {
		return false, nil
	}
	r, err := decodeRecord(payloads[0], w.specs)
	if err != nil {
		return false, err
	}
	return r.Kind == RecordCheckpoint, nil
}

// loadSegment decodes one segment into the mirror. In the final segment a
// torn tail is trimmed — physically truncated — because the write-ahead
// protocol guarantees no transaction whose records sit past the tear was
// ever acknowledged. Anywhere else, damage is ErrCorrupt.
func (w *FileWAL) loadSegment(seq uint64, final bool) error {
	path := filepath.Join(w.dir, segName(seq))
	data, err := w.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("recovery: read segment %d: %w", seq, err)
	}
	payloads, valid, torn := scanFrames(data)
	if torn && !final {
		return fmt.Errorf("%w: segment %d torn at offset %d but is not the final segment", ErrCorrupt, seq, valid)
	}
	for _, p := range payloads {
		r, err := decodeRecord(p, w.specs)
		if err != nil {
			return fmt.Errorf("segment %d: %w", seq, err)
		}
		w.records = append(w.records, r)
	}
	if torn {
		if err := w.fs.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("recovery: trim torn tail of segment %d: %w", seq, err)
		}
	}
	return nil
}

// Dir returns the WAL directory.
func (w *FileWAL) Dir() string { return w.dir }

// Close implements Backend: it closes the active segment. The log needs no
// shutdown protocol — every acknowledged record is already durable.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.active.Close()
}

// Append implements Backend: one record, forced durable before return.
func (w *FileWAL) Append(r Record) error {
	errs := w.AppendBatch([][]Record{{r}})
	return errs[0]
}

// AppendBatch implements Backend — the group-commit force. Every group's
// frames are written to the active segment, then a single fsync makes the
// whole batch durable. Fault isolation mirrors the in-memory disk: a torn
// or failed write inside group i truncates the file back to before the
// failed frame and fails group i alone (its earlier records stay, exactly
// the unacknowledged prefix a solo committer would leave), while later
// groups continue at the truncated offset. A failed fsync fails every
// group and truncates back to the batch start: a commit record whose force
// failed must not be durable, or a transaction the client saw abort could
// resurrect at restart.
func (w *FileWAL) AppendBatch(groups [][]Record) []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	errs := make([]error, len(groups))
	if w.closed {
		for i := range errs {
			errs[i] = fmt.Errorf("%w: wal closed", ErrWriteFailed)
		}
		return errs
	}
	obsWALBatchSize.Observe(int64(len(groups)))

	batchStart := w.activeLen
	var durable []Record
	for i, group := range groups {
		for _, r := range group {
			if err := w.writeRecordLocked(r); err != nil {
				// The group's earlier frames stay in the log without a
				// commit record; restart ignores them, exactly as with
				// the in-memory disk.
				errs[i] = err
				break
			}
			durable = append(durable, r.clone())
		}
	}

	if len(durable) > 0 {
		if err := w.syncLocked(len(groups)); err != nil {
			// Nothing in this batch may be acknowledged: rewind the
			// segment to the batch start and fail every group.
			if terr := w.active.Truncate(batchStart); terr == nil {
				w.activeLen = batchStart
			}
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return errs
		}
	}

	for _, r := range durable {
		w.records = append(w.records, r)
		obsWALAppends.Inc()
	}
	w.maybeRotateLocked()
	return errs
}

// writeRecordLocked encodes and writes one frame, applying the torn-write
// fault point. On any failure the segment is truncated back to the frame
// start so the live log stays clean — on a real disk a torn tail only
// survives a crash; a live process that saw the write fail repairs it.
func (w *FileWAL) writeRecordLocked(r Record) error {
	payload, err := encodeRecord(r, w.specs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWriteFailed, err)
	}
	frame := appendFrame(nil, payload)
	start := w.activeLen
	if w.inj.Fires(fault.DiskWriteTorn) {
		// Model the tear faithfully: a prefix reaches the file, then the
		// write fails and the backend repairs by truncating.
		if _, werr := w.active.Write(frame[:len(frame)/2]); werr == nil {
			w.activeLen += int64(len(frame) / 2)
		}
		if terr := w.active.Truncate(start); terr == nil {
			w.activeLen = start
		}
		obsWALTorn.Inc()
		return fmt.Errorf("%w: torn write of record for %s", ErrWriteFailed, r.Txn)
	}
	n, err := w.active.Write(frame)
	w.activeLen += int64(n)
	if err != nil {
		if terr := w.active.Truncate(start); terr == nil {
			w.activeLen = start
		}
		obsWALFailed.Inc()
		return fmt.Errorf("%w: write for %s: %v", ErrWriteFailed, r.Txn, err)
	}
	obsWALBytes.Add(int64(len(frame)))
	return nil
}

// syncLocked forces the active segment, applying the fsync fault point and
// recording latency + amortisation.
func (w *FileWAL) syncLocked(batch int) error {
	if w.inj.Fires(fault.DiskFsyncFail) {
		obsWALFailed.Inc()
		return fmt.Errorf("%w: fsync failed", ErrWriteFailed)
	}
	start := time.Now()
	if err := w.active.Sync(); err != nil {
		obsWALFailed.Inc()
		return fmt.Errorf("%w: fsync: %v", ErrWriteFailed, err)
	}
	obsFsyncLatency.Observe(time.Since(start).Nanoseconds())
	obsFsyncCount.Inc()
	obsFsyncBatchSize.Add(int64(batch))
	return nil
}

// maybeRotateLocked starts a fresh segment once the active one is over the
// rotation threshold. The old segment is already durable; the new file's
// directory entry is fsynced before any record lands in it, so the
// scan-in-sequence-order recovery invariant (only the final segment may be
// torn) holds across rotation.
func (w *FileWAL) maybeRotateLocked() {
	if w.activeLen < w.segMax {
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
	w.active.Close()
	w.active, w.activeSeq, w.activeLen = f, next, size
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
		payload, err := encodeRecord(r, specs)
		if err != nil {
			return 0, 0, fmt.Errorf("recovery: checkpoint: %w", err)
		}
		buf = appendFrame(buf, payload)
	}

	before := w.segmentBytesLocked()
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
	w.active.Close()
	if names, err := w.fs.ReadDir(w.dir); err == nil {
		for _, name := range names {
			if seq, ok := parseSegName(name); ok && seq < next {
				_ = w.fs.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	written = int64(len(buf))
	w.active, w.activeSeq, w.activeLen = f, next, written
	return before - written, written, nil
}

// segmentBytesLocked sums the on-disk size of every live segment.
func (w *FileWAL) segmentBytesLocked() int64 {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return w.activeLen
	}
	var total int64
	for _, name := range names {
		if _, ok := parseSegName(name); !ok {
			continue
		}
		if data, err := w.fs.ReadFile(filepath.Join(w.dir, name)); err == nil {
			total += int64(len(data))
		}
	}
	return total
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
