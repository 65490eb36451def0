// Package hybridcc implements hybrid atomicity online (§4.3): update
// transactions are processed with dynamic atomicity (the locking object of
// internal/locking), choose their timestamps at commit from a shared
// monotone clock (so the timestamp order is consistent with precedes, as
// §4.3.3 requires), and append their committed intentions to a version log;
// read-only transactions choose a timestamp at initiation and compute every
// query from the log prefix below their timestamp — without acquiring
// locks, without ever aborting, and without delaying any update. A query
// waits only for a prepared update whose prepare floor (cc.TxnInfo) is
// below its timestamp: any other prepared update commits above the reader
// and is outside its snapshot.
package hybridcc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability for the read-only side; the update side is instrumented by
// the inner locking object (whose conflicts land under
// cc.locking.conflicts). A read-only wait is the hybrid protocol's own
// conflict event — a query stalled behind a prepared update — so it is
// counted under the uniform cc.<protocol>.conflicts scheme. A query that
// passed over prepared updates because every one's floor was at or above
// its timestamp counts under hybrid.waits_skipped.
var (
	obsQueries  = obs.Default.Counter("hybrid.queries")
	obsROWaits  = obs.Default.Counter("cc.hybrid.conflicts")
	obsSkipped  = obs.Default.Counter("hybrid.waits_skipped")
	obsWaitLat  = obs.Default.Histogram("hybrid.wait_ns")
	obsVersions = obs.Default.Histogram("hybrid.versions")
	obsTrace    = obs.Default.Tracer()
)

// Config configures a hybrid object.
type Config struct {
	// ID is the object's identifier in recorded histories. Required.
	ID histories.ObjectID
	// Type is the abstract data type. Required.
	Type adts.Type
	// Guard is the conflict rule for the update (locking) side. Required.
	Guard locking.Guard
	// Detector handles update-side deadlocks. Required (hybrid updates are
	// locking transactions).
	Detector *locking.Detector
	// Sink receives history events; nil disables recording.
	Sink cc.EventSink
}

// Object is a hybrid-atomicity object. It implements cc.Resource: updates
// are delegated to an inner locking object; read-only transactions are
// served from the version log.
type Object struct {
	id    histories.ObjectID
	ty    adts.Type
	sink  cc.EventSink
	inner *locking.Object

	mu       sync.Mutex
	waiters  ccrt.WaitSet // read-only queries blocked behind prepared updates
	versions ccrt.VersionLog
	prepared map[histories.ActivityID]histories.Timestamp // prepare floors
	seenRO   map[histories.ActivityID]bool
	broken   error

	queries int64
	roWaits int64
}

var _ cc.Resource = (*Object)(nil)

// New validates cfg and returns a hybrid object.
func New(cfg Config) (*Object, error) {
	if cfg.Detector == nil {
		return nil, errors.New("hybridcc: Config.Detector is required")
	}
	inner, err := locking.New(locking.Config{
		ID:       cfg.ID,
		Type:     cfg.Type,
		Guard:    cfg.Guard,
		Detector: cfg.Detector,
		Sink:     cfg.Sink,
	})
	if err != nil {
		return nil, fmt.Errorf("hybridcc: %w", err)
	}
	return &Object{
		id:       cfg.ID,
		ty:       cfg.Type,
		sink:     cfg.Sink,
		inner:    inner,
		prepared: make(map[histories.ActivityID]histories.Timestamp),
		seenRO:   make(map[histories.ActivityID]bool),
	}, nil
}

// ObjectID implements cc.Resource.
func (o *Object) ObjectID() histories.ObjectID { return o.id }

// Inner exposes the update-side locking object (for stats and tests).
func (o *Object) Inner() *locking.Object { return o.inner }

// PendingCalls reports an update transaction's intentions at this object
// (write-ahead logging); read-only transactions have none.
func (o *Object) PendingCalls(txn *cc.TxnInfo) []spec.Call {
	if txn.ReadOnly {
		return nil
	}
	return o.inner.PendingCalls(txn)
}

// Err reports internal invariant violations from either side.
func (o *Object) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.broken != nil {
		return o.broken
	}
	return o.inner.Err()
}

// Stats returns (read-only queries served, read-only waits entered).
func (o *Object) Stats() (queries, roWaits int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries, o.roWaits
}

// changed wakes every blocked read-only query: the prepared set shrank, so
// any of them may now proceed. Callers must hold o.mu.
func (o *Object) changed() {
	o.waiters.WakeAll()
}

// Invoke implements cc.Resource.
func (o *Object) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if txn.ReadOnly {
		return o.query(txn, inv)
	}
	return o.inner.Invoke(txn, inv)
}

// query serves a read-only transaction from the version-log prefix below
// its timestamp. It blocks only while some update is between prepare and
// commit at this object with a prepare floor below the reader's timestamp
// (such an update may yet commit below the reader). An update whose floor
// is at or above it commits above it, so the query passes it by; a zero
// floor (an update prepared without the runtime) blocks every reader. It
// never blocks any update and never aborts.
func (o *Object) query(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if txn.TS == histories.TSNone {
		return value.Nil(), fmt.Errorf("hybridcc: read-only transaction %s has no timestamp", txn.ID)
	}
	if o.ty.IsWrite(inv.Op) {
		return value.Nil(), fmt.Errorf("hybridcc: %s invokes %s: %w", txn.ID, inv.Op, cc.ErrReadOnly)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.seenRO[txn.ID] {
		o.seenRO[txn.ID] = true
		o.sink.Emit(histories.Initiate(o.id, txn.ID, txn.TS))
	}
	o.sink.Emit(histories.Invoke(o.id, txn.ID, inv.Op, inv.Arg))
	var waitCh chan struct{}
	for o.preparedBelow(txn.TS) {
		o.roWaits++
		obsROWaits.Inc()
		waitStart := time.Now()
		if waitCh == nil {
			waitCh = make(chan struct{}, 1)
		} else {
			select {
			case <-waitCh:
			default:
			}
		}
		o.waiters.Register(txn.ID, waitCh)
		o.mu.Unlock()
		<-waitCh
		blocked := time.Since(waitStart)
		obsWaitLat.Observe(int64(blocked))
		if obsTrace.Enabled() {
			obsTrace.Record(obs.TraceEvent{Kind: obs.KindWait, Txn: string(txn.ID), Obj: string(o.id), Dur: blocked})
		}
		o.mu.Lock()
	}
	if waitCh != nil {
		o.waiters.Unregister(txn.ID)
	}
	if len(o.prepared) > 0 {
		obsSkipped.Inc()
	}
	st := o.stateBelow(txn.TS)
	out, err := spec.Apply(st, inv)
	if err != nil {
		return value.Nil(), fmt.Errorf("hybridcc: %s at %s: %w: %v", txn.ID, o.id, cc.ErrInvalidOp, err)
	}
	o.queries++
	obsQueries.Inc()
	o.sink.Emit(histories.Return(o.id, txn.ID, out.Result))
	return out.Result, nil
}

// preparedBelow reports whether some prepared update's floor is below ts:
// that update may commit below ts, so a reader at ts must wait for it.
// Callers must hold o.mu.
func (o *Object) preparedBelow(ts histories.Timestamp) bool {
	for _, floor := range o.prepared {
		if floor < ts {
			return true
		}
	}
	return false
}

// stateBelow returns the state containing exactly the committed updates
// with timestamps below ts. Callers must hold o.mu.
func (o *Object) stateBelow(ts histories.Timestamp) spec.State {
	return o.versions.StateBelow(ts, o.ty.Spec.Init())
}

// Prepare implements cc.Resource.
func (o *Object) Prepare(txn *cc.TxnInfo) error {
	if txn.ReadOnly {
		return nil
	}
	if err := o.inner.Prepare(txn); err != nil {
		return err
	}
	o.mu.Lock()
	o.prepared[txn.ID] = txn.PrepareFloor
	o.mu.Unlock()
	return nil
}

// Commit implements cc.Resource. For updates, ts must be the commit
// timestamp issued by the shared clock; the caller (the transaction
// runtime) serialises commits so that versions arrive in ascending
// timestamp order.
func (o *Object) Commit(txn *cc.TxnInfo, ts histories.Timestamp) {
	if txn.ReadOnly {
		o.mu.Lock()
		defer o.mu.Unlock()
		if !o.seenRO[txn.ID] {
			return
		}
		delete(o.seenRO, txn.ID)
		o.sink.Emit(histories.Commit(o.id, txn.ID))
		return
	}
	// Commits reach the object in timestamp order, so the version head
	// equals the inner object's base before each one, and the state the
	// inner commit installs is the new version: the calls are not replayed
	// a second time.
	o.mu.Lock()
	defer o.mu.Unlock()
	invoked := o.inner.HasPending(txn)
	o.inner.Commit(txn, ts)
	if invoked {
		if err := o.inner.Err(); err != nil {
			o.corrupt(fmt.Errorf("hybridcc: commit at %s: %w", o.id, err))
		} else if err := o.versions.Append(ts, o.inner.Base()); err != nil {
			o.corrupt(fmt.Errorf("hybridcc: at %s: %w", o.id, err))
		} else {
			obsVersions.Observe(int64(o.versions.Len()))
		}
	}
	delete(o.prepared, txn.ID)
	o.changed()
}

// Abort implements cc.Resource.
func (o *Object) Abort(txn *cc.TxnInfo) {
	if txn.ReadOnly {
		o.mu.Lock()
		defer o.mu.Unlock()
		if !o.seenRO[txn.ID] {
			return
		}
		delete(o.seenRO, txn.ID)
		o.sink.Emit(histories.Abort(o.id, txn.ID))
		return
	}
	o.inner.Abort(txn)
	o.mu.Lock()
	delete(o.prepared, txn.ID)
	o.changed()
	o.mu.Unlock()
}

func (o *Object) corrupt(err error) {
	if o.broken == nil {
		o.broken = err
	}
}
