// Package cc is the small kernel shared by the online concurrency-control
// protocols: the transaction descriptor, the resource interface every
// protocol object implements, the event-sink hook used to record histories
// for offline checking, and the sentinel errors by which protocols ask the
// runtime to abort a transaction.
package cc

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Sentinel errors. Protocols return these (wrapped) from Invoke to tell the
// runtime that the transaction must abort; the runtime distinguishes
// retryable aborts (deadlock, timeout, timestamp conflicts) from permanent
// failures (unknown operations).
var (
	// ErrDeadlock: the transaction was chosen as a deadlock victim.
	ErrDeadlock = errors.New("deadlock victim")
	// ErrTimeout: the transaction waited longer than the lock timeout.
	ErrTimeout = errors.New("lock wait timeout")
	// ErrDoomed: the transaction was aborted while blocked.
	ErrDoomed = errors.New("transaction doomed")
	// ErrConflict: a timestamp-ordering conflict (Reed's protocol aborts
	// the invoker, §4.2.3).
	ErrConflict = errors.New("timestamp conflict")
	// ErrReadOnly: a read-only transaction invoked a mutating operation.
	ErrReadOnly = errors.New("mutating operation in read-only transaction")
	// ErrInvalidOp: the invocation is not permitted by the serial
	// specification in any state (e.g. unknown operation or bad argument).
	ErrInvalidOp = errors.New("invocation not permitted by specification")
	// ErrUnknownTxn: the resource has no record of the transaction.
	ErrUnknownTxn = errors.New("unknown transaction at resource")
	// ErrUnavailable: a resource the transaction needs is temporarily
	// unreachable (crashed site, failed stable-storage write, exhausted
	// retransmissions). The transaction must abort but may be retried:
	// outages are transient in the fault model, so workloads degrade to
	// retries instead of surfacing hard errors.
	ErrUnavailable = errors.New("resource temporarily unavailable")
)

// ErrMoved: the object the transaction addressed is no longer homed at
// the site the message reached — a shard migration (or membership change)
// moved it since the client last refreshed its placement. The transaction
// must abort, the client refreshes its placement view, and the retry
// routes to the object's new home. It wraps ErrUnavailable (retryable).
var ErrMoved = fmt.Errorf("object moved to a new home: %w", ErrUnavailable)

// ErrCoordinatorDown: the transaction's coordinator crashed (or is
// unreachable) while the outcome was being decided, so the client cannot
// learn whether the decision was made durable. The client-side transaction
// is an orphan (§6): the runtime finishes it without broadcasting aborts —
// participants that prepared stay in doubt and resolve through the
// cooperative termination protocol, never against the client's guess. It
// wraps ErrUnavailable (retryable).
var ErrCoordinatorDown = fmt.Errorf("transaction coordinator down: %w", ErrUnavailable)

// AbortCause names the sentinel behind an abort error, for aborts-by-cause
// metrics: "deadlock", "timeout", "doomed", "conflict", "moved",
// "unavailable", "readonly", "invalid-op", "unknown-txn", or "other".
func AbortCause(err error) string {
	switch {
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrDoomed):
		return "doomed"
	case errors.Is(err, ErrConflict):
		return "conflict"
	case errors.Is(err, ErrMoved):
		return "moved"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrReadOnly):
		return "readonly"
	case errors.Is(err, ErrInvalidOp):
		return "invalid-op"
	case errors.Is(err, ErrUnknownTxn):
		return "unknown-txn"
	default:
		return "other"
	}
}

// Retryable reports whether err is a transient protocol abort: the caller
// should abort the transaction and may run it again.
func Retryable(err error) bool {
	return errors.Is(err, ErrDeadlock) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrDoomed) ||
		errors.Is(err, ErrConflict) ||
		errors.Is(err, ErrUnavailable)
}

// TxnInfo identifies a transaction to the protocol objects.
type TxnInfo struct {
	// ID is the activity identifier used in recorded histories.
	ID histories.ActivityID
	// TS is the transaction's a-priori timestamp: its initiation timestamp
	// under static atomicity, or a read-only activity's snapshot timestamp
	// under hybrid atomicity. Zero when the protocol assigns no timestamp
	// up front.
	TS histories.Timestamp
	// Seq is a global birth sequence number; deadlock victim selection
	// aborts the youngest (largest Seq) transaction in a cycle.
	Seq int64
	// ReadOnly marks a read-only activity, under every property. Objects
	// refuse its mutating operations with ErrReadOnly; under hybrid
	// atomicity it also selects the snapshot read at TS. The runtime commits
	// it without waiting for a log force, since it has no effects to
	// recover.
	ReadOnly bool
	// PrepareFloor, for a hybrid-atomicity update, is a timestamp the
	// runtime draws from the shared clock just before the update's first
	// Prepare. The commit timestamp is drawn later from the same strictly
	// increasing clock, so it lies above the floor, and a read-only
	// activity whose timestamp is at or below the floor can never see the
	// update. Zero when no floor was drawn.
	PrepareFloor histories.Timestamp
	// SnapshotFloor, for a hybrid-atomicity update, is at or below the
	// timestamp of every read-only activity that is live or may still begin
	// (the runtime's snapshot floor, loaded once its commit timestamp is
	// drawn), and at or below the commit timestamp. An object committing
	// the update may drop every version older than the newest one below it:
	// no reader will ask below it. Zero keeps every version.
	SnapshotFloor histories.Timestamp
	// Participants names the sites taking part in the transaction's
	// two-phase commit (set by the runtime before prepare when resources
	// report their site). A participant persists the list with its
	// yes-vote so an in-doubt recovery knows which peers to poll during
	// cooperative termination. The slice is frozen once Commit has built
	// it: participants share it by reference and nobody writes to it.
	Participants []string
}

// TxnID is the activity identifier of the transaction with birth sequence
// number seq.
func TxnID(seq int64) histories.ActivityID {
	// One allocation: the digits are appended into a stack buffer and the
	// string conversion copies them once.
	var buf [24]byte
	return histories.ActivityID(strconv.AppendInt(append(buf[:0], 't'), seq, 10))
}

// TxnSeq is TxnID's exact inverse on positive sequence numbers: the birth
// sequence number inside id, false for identifiers TxnID never produces
// for one (replica deliveries, migrations, test fixtures, and spellings
// such as "t05", "t+5", "t0" or a number past math.MaxInt64). When it
// reports true, TxnID(seq) == id. A runtime reopened on a durable log uses
// it to number its transactions past every identifier the log already
// holds, and a site's decided table to index numbered transactions.
func TxnSeq(id histories.ActivityID) (int64, bool) {
	if len(id) < 2 || len(id) > 20 || id[0] != 't' || id[1] == '0' {
		return 0, false
	}
	var seq int64
	for i := 1; i < len(id); i++ {
		d := id[i] - '0'
		if d > 9 || seq > (math.MaxInt64-int64(d))/10 {
			return 0, false
		}
		seq = seq*10 + int64(d)
	}
	return seq, true
}

// Resource is an object managed by an online protocol. Invoke may block
// (locking) and may return a sentinel error demanding an abort. The
// two-phase commit sequence is Prepare on every resource, then Commit on
// every resource (with the commit timestamp, if the protocol uses one);
// Abort may be called at any point instead.
type Resource interface {
	// ObjectID returns the identifier under which events are recorded.
	ObjectID() histories.ObjectID
	// Invoke executes inv on behalf of txn and returns its result.
	Invoke(txn *TxnInfo, inv spec.Invocation) (value.Value, error)
	// Prepare readies txn's effects for commit. After a successful prepare
	// the resource guarantees Commit cannot fail.
	Prepare(txn *TxnInfo) error
	// Commit makes txn's effects permanent. ts is the commit timestamp
	// (hybrid atomicity) or zero.
	Commit(txn *TxnInfo, ts histories.Timestamp)
	// Abort discards txn's effects.
	Abort(txn *TxnInfo)
}

// EventSink receives history events as they happen. Protocol objects call
// it inside their critical sections so that the recorded order is a valid
// observation of the computation. A nil EventSink disables recording.
type EventSink func(histories.Event)

// Emit calls the sink if it is non-nil.
func (s EventSink) Emit(e histories.Event) {
	if s != nil {
		s(e)
	}
}
