package recovery

import (
	"fmt"
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Observability for stable storage. Byte counts are an estimate of the
// serialized record size (the model keeps records in memory), good enough
// to compare logging volume across runs.
var (
	obsWALAppends        = obs.Default.Counter("wal.appends")
	obsWALBytes          = obs.Default.Counter("wal.append.bytes")
	obsWALFailed         = obs.Default.Counter("wal.append.failed")
	obsWALBatchSize      = obs.Default.Histogram("wal.append.batch_size")
	obsWALTorn           = obs.Default.Counter("wal.append.torn")
	obsCheckpoints       = obs.Default.Counter("wal.checkpoints")
	obsCheckpointTorn    = obs.Default.Counter("wal.checkpoint.torn")
	obsCheckpointReclaim = obs.Default.Counter("wal.checkpoint.reclaimed_bytes")
)

// recordBytes estimates a record's serialized size: a fixed header plus
// per-call, per-state and per-decision overheads.
func recordBytes(r Record) int64 {
	return 64 + 48*int64(len(r.Calls)) + 96*int64(len(r.States)) + 24*int64(len(r.Decided)) + 16*int64(len(r.Hosted)) + 16*int64(len(r.ReplicaTS))
}

// RecordKind discriminates write-ahead-log records.
type RecordKind int

// Log record kinds. A transaction's intentions are forced to the log at
// prepare; the commit record is the atomic commit point; installation of
// the intentions into the object states is redone idempotently at restart.
// A checkpoint record snapshots the committed states (and the committed
// transaction ids) so the log prefix it summarises can be compacted away.
const (
	RecordIntentions RecordKind = iota + 1
	RecordCommit
	RecordAbort
	RecordInstalled
	RecordCheckpoint
)

// MigrateDir marks an intentions record as one half of a transactional
// shard migration: Out at the object's old home (commit drops hosting), In
// at its new home (commit adopts the copied state as the object's
// committed baseline and takes over hosting). A migration is an ordinary
// transaction — its halves prepare, force intentions, and resolve through
// the same 2PC/termination protocol as any other — so a crash mid-move
// recovers or presumed-aborts with the object still singly-homed.
type MigrateDir int

// Migration directions for Record.Migrate.
const (
	MigrateNone MigrateDir = iota
	MigrateOut
	MigrateIn
	// ReplicaIn marks a replica-group record at a follower site: a seed
	// (States set) adopts the shipped baseline as the follower's committed
	// copy, a delivery (Calls set) replays the shipped calls onto it.
	// Unlike MigrateIn, ReplicaIn never touches hosting — the leader stays
	// the object's single home and the follower only serves snapshot
	// reads. Each ReplicaIn intentions record is paired with its own
	// commit record (the follower's local WAL protocol), so an
	// uncommitted delivery vanishes at restart and bounded-retry
	// redelivery re-logs it; restart's in-doubt resolution must skip
	// these records — they are not transaction halves and have no
	// coordinator to consult.
	ReplicaIn
)

// Record is one entry in the write-ahead log.
type Record struct {
	Kind   RecordKind
	Txn    histories.ActivityID
	Object histories.ObjectID // RecordIntentions and RecordInstalled
	Calls  []spec.Call        // RecordIntentions
	TS     histories.Timestamp
	// Migrate marks a migration half (RecordIntentions): Out at the old
	// home, In at the new. A committed MigrateIn adopts States[Object] as
	// the object's committed baseline; a committed MigrateOut removes the
	// object from the site's committed state.
	Migrate MigrateDir
	// RingV is the placement version the migration installs when it
	// commits (RecordIntentions with Migrate set).
	RingV uint64
	// Torn marks a record whose append failed partway: only a prefix of
	// its calls reached stable storage. Restart discards torn records,
	// modelling checksum-validated log entries.
	Torn bool
	// Participants names the transaction's participant sites
	// (RecordIntentions, distributed mode): the peers an in-doubt
	// recovery polls during cooperative termination.
	Participants []string
	// States is a checkpoint's committed-state snapshot, one immutable
	// spec.State per object (RecordCheckpoint).
	States map[histories.ObjectID]spec.State
	// Decided is a checkpoint's set of transactions with a durable commit
	// outcome (RecordCheckpoint). Compaction drops their commit records,
	// so peer-outcome queries answer from here instead. Aborted
	// transactions are deliberately absent: presumed abort makes their
	// records forgettable.
	Decided map[histories.ActivityID]bool
	// Hosted is a checkpoint's hosting snapshot (RecordCheckpoint, sites
	// with migration support): which objects the site was home to at
	// checkpoint time. Compaction drops committed migration records, so
	// hosting must be re-derivable from the checkpoint alone. Nil on
	// checkpoints taken without hosting awareness.
	Hosted map[histories.ObjectID]bool
	// ReplicaTS is a checkpoint's replica watermark (RecordCheckpoint):
	// per object, the highest delivery timestamp among the committed
	// ReplicaIn records the checkpoint's States snapshot folds in.
	// Compaction drops those records, so a recovering follower derives
	// its snapshot-read floor from here — reads below the floor would
	// silently include later effects already merged into the baseline.
	ReplicaTS map[histories.ObjectID]histories.Timestamp
}

// clone deep-copies a record so callers can never alias the live log.
func (r Record) clone() Record {
	cp := r
	cp.Calls = append([]spec.Call(nil), r.Calls...)
	if r.Participants != nil {
		cp.Participants = append([]string(nil), r.Participants...)
	}
	if r.States != nil {
		cp.States = make(map[histories.ObjectID]spec.State, len(r.States))
		for id, st := range r.States {
			cp.States[id] = st // spec.State is immutable
		}
	}
	if r.Decided != nil {
		cp.Decided = make(map[histories.ActivityID]bool, len(r.Decided))
		for txn, v := range r.Decided {
			cp.Decided[txn] = v
		}
	}
	if r.Hosted != nil {
		cp.Hosted = make(map[histories.ObjectID]bool, len(r.Hosted))
		for id, v := range r.Hosted {
			cp.Hosted[id] = v
		}
	}
	if r.ReplicaTS != nil {
		cp.ReplicaTS = make(map[histories.ObjectID]histories.Timestamp, len(r.ReplicaTS))
		for id, ts := range r.ReplicaTS {
			cp.ReplicaTS[id] = ts
		}
	}
	return cp
}

// ErrWriteFailed reports a failed stable-storage append. It wraps
// cc.ErrUnavailable: a transaction whose log write fails must abort but may
// be retried.
var ErrWriteFailed = fmt.Errorf("recovery: stable-storage write failed: %w", cc.ErrUnavailable)

// memLog is the in-memory log core both backends share: the durable record
// sequence, its readers, and checkpoint compaction. What a backend adds is
// how records get appended (Disk: injected torn and failed appends;
// FileWAL: framing, segments, fsync) and how a compacted log is installed.
type memLog struct {
	mu      sync.Mutex
	records []Record
	inj     *fault.Injector
}

// SetInjector attaches a fault injector (nil detaches).
func (l *memLog) SetInjector(in *fault.Injector) {
	l.mu.Lock()
	l.inj = in
	l.mu.Unlock()
}

// Records returns a deep-copied snapshot of the log: mutating a returned
// record's Calls cannot alias the live log.
func (l *memLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	for i := range l.records {
		out[i] = l.records[i].clone()
	}
	return out
}

// Len returns the number of records.
func (l *memLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// checkpointLocked compacts the log under l.mu: the fold of the live
// records builds the compacted sequence (so the snapshot is exactly what
// Restart would rebuild at this instant and can never tear across a
// multi-object installation), install makes it durable and reports the bytes
// reclaimed and written, and only then does it replace the live records. A
// failed install leaves the uncompacted log authoritative.
func (l *memLog) checkpointLocked(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool, withHosted bool, install func(compacted []Record) (reclaimed, written int64, err error)) (int64, error) {
	compacted, err := FoldLog(l.records).compact(specs, initialHosted, withHosted)
	if err != nil {
		return 0, fmt.Errorf("recovery: checkpoint replay: %w", err)
	}
	reclaimed, written, err := install(compacted)
	if err != nil {
		return 0, err
	}
	l.records = compacted
	if reclaimed < 0 {
		reclaimed = 0
	}
	obsCheckpoints.Inc()
	obsCheckpointReclaim.Add(reclaimed)
	obsWALAppends.Inc()
	obsWALBytes.Add(written)
	return reclaimed, nil
}

// Disk is the in-memory stable-storage model: everything appended survives
// a Crash; nothing else does. It is safe for concurrent use. An attached
// fault injector can make appends fail or tear (fault.DiskAppendFail,
// fault.DiskAppendTorn) and checkpoints tear (fault.DiskCheckpointTorn).
type Disk struct {
	memLog
}

// Append durably appends a record. A torn append writes a checksummed-away
// prefix of the record's calls and reports failure; a failed append writes
// nothing. Either way the caller must treat the record as not logged.
func (d *Disk) Append(r Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(r)
}

// appendLocked is Append under d.mu: one record, with the torn/failed
// fault points applied.
func (d *Disk) appendLocked(r Record) error {
	cp := r.clone()
	if len(cp.Calls) > 0 && d.inj.Fires(fault.DiskAppendTorn) {
		torn := cp
		torn.Calls = cp.Calls[:len(cp.Calls)/2]
		torn.Torn = true
		d.records = append(d.records, torn)
		obsWALTorn.Inc()
		return fmt.Errorf("%w: torn append of %s record for %s", ErrWriteFailed, "intentions", r.Txn)
	}
	if d.inj.Fires(fault.DiskAppendFail) {
		obsWALFailed.Inc()
		return fmt.Errorf("%w: append for %s", ErrWriteFailed, r.Txn)
	}
	d.records = append(d.records, cp)
	obsWALAppends.Inc()
	obsWALBytes.Add(recordBytes(cp))
	return nil
}

// AppendBatch appends several transactions' record groups under one
// stable-storage acquisition — the group-commit entry point: a commit
// leader hands in one group per follower (that transaction's intentions
// records followed by its commit record) and the whole batch goes to disk
// as one forced write.
//
// Fault semantics are exactly those of per-group sequences of Append: the
// torn/failed fault points are applied to every record individually, and a
// fault inside group i fails group i alone — its earlier records stay in
// the log without a commit record, precisely the state a solo committer
// would leave, so Restart ignores them — while later groups still append.
// errs[i] is nil iff group i's records are all durably logged.
func (d *Disk) AppendBatch(groups [][]Record) []error { return d.WriteBatch(groups)() }

// WriteBatch implements Backend. The in-memory disk is durable the moment a
// record is appended, so the write stage does everything and the returned
// wait only hands back its outcome.
func (d *Disk) WriteBatch(groups [][]Record) (wait func() []error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	errs := make([]error, len(groups))
	obsWALBatchSize.Observe(int64(len(groups)))
	for i, group := range groups {
		for _, r := range group {
			if err := d.appendLocked(r); err != nil {
				errs[i] = err
				break
			}
		}
	}
	return func() []error { return errs }
}

// Checkpoint writes a checkpoint record — the committed-state snapshot
// obtained by replaying the current log plus the set of durably committed
// transactions — and compacts the log down to checkpoint + the intentions
// of still-undecided transactions (see Fold.compact). It returns the
// estimated bytes reclaimed. Under fault.DiskCheckpointTorn the checkpoint
// record tears: it is appended torn (so restart ignores it), nothing is
// compacted, and the full log remains the source of truth.
func (d *Disk) Checkpoint(specs map[histories.ObjectID]spec.SerialSpec) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked(specs, nil, false, d.installLocked)
}

// CheckpointHosted is Checkpoint for sites with migration support: the
// checkpoint record additionally snapshots which objects the site hosts
// (derived from initialHosted plus the log's committed migrations), so
// hosting survives the compaction that drops the migration records
// themselves. initialHosted has RestartHosted's semantics.
func (d *Disk) CheckpointHosted(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked(specs, initialHosted, true, d.installLocked)
}

// installLocked is the in-memory install: nothing to make durable beyond
// the slice swap its caller performs, so it only applies the torn-checkpoint
// fault point and estimates the bytes.
func (d *Disk) installLocked(compacted []Record) (reclaimed, written int64, err error) {
	if d.inj.Fires(fault.DiskCheckpointTorn) {
		// The snapshot never made it to stable storage.
		d.records = append(d.records, Record{Kind: RecordCheckpoint, Torn: true})
		obsCheckpointTorn.Inc()
		return 0, 0, fmt.Errorf("%w: torn checkpoint", ErrWriteFailed)
	}
	for _, r := range d.records {
		reclaimed += recordBytes(r)
	}
	for _, r := range compacted {
		reclaimed -= recordBytes(r)
	}
	return reclaimed, recordBytes(compacted[0]), nil
}

// Restart rebuilds the committed state of every object from the log alone:
// the fold of the log decides which transactions committed and Redo replays
// their intentions (see Fold.Redo).
func Restart(d Backend, specs map[histories.ObjectID]spec.SerialSpec) (map[histories.ObjectID]spec.State, error) {
	states, _, err := RestartHosted(d, specs, nil)
	return states, err
}

// RestartHosted is Restart for sites that host a moving set of objects: it
// additionally rebuilds which objects the site is home to. initialHosted
// names the objects the site was seeded with (before any migration); nil
// means every object in specs. Committed migrate-in records take hosting
// (and adopt the copied state baseline), committed migrate-out records
// drop it, and a checkpoint's Hosted snapshot re-bases the derivation the
// way its States snapshot re-bases state replay.
func RestartHosted(d Backend, specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (map[histories.ObjectID]spec.State, map[histories.ObjectID]bool, error) {
	return FoldLog(d.Records()).Redo(specs, initialHosted)
}

// ReplicaWatermarks returns the log's per-object replica delivery floor
// (see Fold.Watermarks).
func ReplicaWatermarks(d Backend) map[histories.ObjectID]histories.Timestamp {
	return FoldLog(d.Records()).Watermarks()
}
