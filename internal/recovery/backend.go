package recovery

import (
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
)

// Backend is the stable-storage seam: everything the protocol layers need
// from a write-ahead log, with the durability mechanism behind it
// pluggable. Two implementations ship: Disk, the in-memory model that the
// fault injector can tear deterministically (the chaos default), and
// FileWAL, a file-backed segmented log whose torn-write detection is real
// CRC framing rather than an injected flag.
//
// The two share one in-memory log core (the record sequence, Records, Len,
// and the checkpoint builder, which compacts the log to what its Fold says
// it means); they differ in how records are appended and in how a compacted
// log is installed — a slice swap, or a fresh segment plus a manifest
// rename — never in what it contains.
//
// All methods are safe for concurrent use. The contract:
//
//   - Append/AppendBatch: a nil error means the record group is durably
//     logged; any error means the caller must treat it as not logged (the
//     write-ahead rule — a commit that cannot be logged stays prepared).
//     AppendBatch isolates faults per group: errs[i] is nil iff group i is
//     durable, independent of its batch mates.
//   - WriteBatch splits AppendBatch into its two stages. It frames and
//     writes the groups before it returns — writes land in call order, so
//     a later call's records follow an earlier call's in the log — and the
//     returned wait blocks until those bytes are durable, returning
//     AppendBatch's per-group errors. AppendBatch is WriteBatch(groups)().
//     A caller may write batch N+1 while batch N's wait is still blocked
//     (pipelined group commit), and need not wait at all for a record
//     whose durability no one depends on: an unwaited batch becomes
//     durable with the next force that covers it.
//   - Records returns a deep-copied snapshot; mutating it cannot alias the
//     live log. It costs time in the log's length, so only recovery,
//     checkpoint, tests and tooling read it: a running node answers from
//     its volatile tables, never by reading its log back.
//   - Checkpoint/CheckpointHosted snapshot committed state, compact the
//     log to the snapshot plus the intentions of still-undecided
//     transactions, and report (estimated) bytes reclaimed.
//   - SetInjector attaches a deterministic fault injector (nil detaches).
//   - Close releases any OS resources; the in-memory disk has none.
type Backend interface {
	Append(r Record) error
	AppendBatch(groups [][]Record) []error
	WriteBatch(groups [][]Record) (wait func() []error)
	Records() []Record
	Len() int
	Checkpoint(specs map[histories.ObjectID]spec.SerialSpec) (int64, error)
	CheckpointHosted(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (int64, error)
	SetInjector(in *fault.Injector)
	Close() error
}

var _ Backend = (*Disk)(nil)

// Close implements Backend. The in-memory disk holds no OS resources.
func (d *Disk) Close() error { return nil }
