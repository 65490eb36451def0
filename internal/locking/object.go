package locking

import (
	"errors"
	"fmt"
	"time"

	"sync"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability: conflict-wait metrics for the locking protocols. Waits
// are the slow path, so the extra clock reads cost nothing on granted
// invocations. A wait is entered exactly when the guard denies every
// candidate outcome — a conflict — so the counter lives under the uniform
// cc.<protocol>.conflicts scheme.
var (
	obsGrants  = obs.Default.Counter("locking.grants")
	obsWaits   = obs.Default.Counter("cc.locking.conflicts")
	obsWaitLat = obs.Default.Histogram("locking.wait_ns")
	obsTrace   = obs.Default.Tracer()
)

// Config configures a locking object.
type Config struct {
	// ID is the object's identifier in recorded histories. Required.
	ID histories.ObjectID
	// Type is the abstract data type the object implements. Required.
	Type adts.Type
	// Guard is the conflict rule. Required.
	Guard Guard
	// Detector enables waits-for deadlock detection. Optional; when nil,
	// WaitTimeout must be positive (timeout-only deadlock handling).
	Detector *Detector
	// WaitTimeout bounds each blocked wait; zero means wait forever (only
	// allowed with a Detector).
	WaitTimeout time.Duration
	// Sink receives history events; nil disables recording.
	Sink cc.EventSink
	// UpdateInPlace selects undo-log recovery (the object's shared state is
	// mutated immediately and compensations are logged) instead of the
	// default deferred-update intentions lists. Requires Type.Invert and is
	// incompatible with state-dependent guards (ExactGuard, EscrowGuard),
	// whose soundness argument assumes the base state excludes uncommitted
	// effects.
	UpdateInPlace bool
	// Initial overrides the committed base state (crash recovery restores
	// an object from a write-ahead log). Nil selects Type.Spec.Init().
	Initial spec.State
}

// txnEntry is the per-transaction state at one object. Under deferred
// update, view caches the transaction's view — the committed base with its
// intentions applied — and is valid while viewGen equals the object's
// baseGen; each grant advances it by the granted call, so an invoke or a
// commit replays the intentions only after the base moved.
type txnEntry struct {
	intentions recovery.IntentionsList
	undo       recovery.UndoLog
	prepared   bool
	view       spec.State
	viewGen    uint64
}

// Object is a locking-protocol object: the generalisation of two-phase
// locking the paper calls dynamic atomicity, with recovery by intentions
// lists (default) or undo logs. It implements cc.Resource.
type Object struct {
	id          histories.ObjectID
	ty          adts.Type
	guard       Guard
	detector    *Detector
	waitTimeout time.Duration
	sink        cc.EventSink
	inPlace     bool

	mu      sync.Mutex
	waiters ccrt.WaitSet // blocked invokers, one wakeup channel each
	base    spec.State
	baseGen uint64 // bumped whenever base is assigned; dates cached views
	active  ccrt.Table[txnEntry]
	broken  error // set if commit-time replay diverges (protocol bug guardrail)

	// stats, maintained under mu.
	grants int64
	waits  int64
}

var _ cc.Resource = (*Object)(nil)

// New validates cfg and returns a locking object.
func New(cfg Config) (*Object, error) {
	if cfg.ID == "" {
		return nil, errors.New("locking: Config.ID is required")
	}
	if cfg.Type.Spec == nil {
		return nil, errors.New("locking: Config.Type.Spec is required")
	}
	if cfg.Guard == nil {
		return nil, errors.New("locking: Config.Guard is required")
	}
	if cfg.Detector == nil && cfg.WaitTimeout <= 0 {
		return nil, errors.New("locking: need a Detector or a positive WaitTimeout")
	}
	if cfg.UpdateInPlace {
		if cfg.Type.Invert == nil {
			return nil, fmt.Errorf("locking: type %s does not support update-in-place recovery", cfg.Type.Spec.Name())
		}
		switch cfg.Guard.(type) {
		case ExactGuard, *ExactGuard, EscrowGuard, *EscrowGuard:
			return nil, errors.New("locking: update-in-place recovery is incompatible with state-based guards")
		}
		// Engines (and any future guard) self-report state-basedness.
		if sb, ok := cfg.Guard.(interface{ StateBased() bool }); ok && sb.StateBased() {
			return nil, errors.New("locking: update-in-place recovery is incompatible with state-based guards")
		}
	}
	base := cfg.Initial
	if base == nil {
		base = cfg.Type.Spec.Init()
	}
	o := &Object{
		id:          cfg.ID,
		ty:          cfg.Type,
		guard:       cfg.Guard,
		detector:    cfg.Detector,
		waitTimeout: cfg.WaitTimeout,
		sink:        cfg.Sink,
		inPlace:     cfg.UpdateInPlace,
		base:        base,
	}
	if o.detector != nil {
		o.detector.RegisterWake(o.wakeTxn)
	}
	return o, nil
}

// ObjectID implements cc.Resource.
func (o *Object) ObjectID() histories.ObjectID { return o.id }

// Err reports an internal protocol invariant violation detected at commit
// (nil in correct operation). Tests assert it stays nil.
func (o *Object) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.broken
}

// Base returns the committed state (for tests and tools).
func (o *Object) Base() spec.State {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.base
}

// Stats returns (granted invocations, waits entered).
func (o *Object) Stats() (grants, waits int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.grants, o.waits
}

// changed wakes all blocked waiters: claims were released (commit or
// abort) or the base state moved, so any of them may now be grantable.
// Callers must hold o.mu.
func (o *Object) changed() {
	o.waiters.WakeAll()
}

// invalidateGuard drops a cascading guard's memoised decisions after a
// commit or abort moved the committed base or drained pending blocks. The
// cache keys cover the full decision input, so stale entries could never
// be wrong — invalidating keeps the cache from accumulating dead keys.
// Callers must hold o.mu.
func (o *Object) invalidateGuard() {
	if inv, ok := o.guard.(interface{ InvalidateConflictCache() }); ok {
		inv.InvalidateConflictCache()
	}
}

// wakeTxn is the detector’s targeted doom hook: wake exactly the doomed
// transaction if it is blocked here, leave every other waiter asleep.
func (o *Object) wakeTxn(txn histories.ActivityID) {
	o.mu.Lock()
	o.waiters.Wake(txn)
	o.mu.Unlock()
}

// PendingCalls returns a copy of txn's intentions at this object (used by
// the write-ahead log and by the hybrid protocol's version log).
func (o *Object) PendingCalls(txn *cc.TxnInfo) []spec.Call {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.active.Lookup(txn.ID)
	if e == nil {
		return nil
	}
	return append([]spec.Call(nil), e.intentions.Calls()...)
}

// CallCount returns how many calls txn has recorded at this object,
// without copying them.
func (o *Object) CallCount(txn *cc.TxnInfo) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.active.Lookup(txn.ID)
	if e == nil {
		return 0
	}
	return e.intentions.Len()
}

// Invoke implements cc.Resource: it blocks until the call is grantable,
// the transaction is doomed, or the wait times out. A read-only
// transaction's mutating operation is refused with cc.ErrReadOnly.
func (o *Object) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if txn.ReadOnly && o.ty.IsWrite != nil && o.ty.IsWrite(inv.Op) {
		return value.Nil(), fmt.Errorf("locking: %s invokes %s at %s: %w", txn.ID, inv.Op, o.id, cc.ErrReadOnly)
	}
	return o.invoke(txn, inv)
}

// invoke is Invoke past the read-only check. It is a function of its own
// because the compiler open-codes defers only while returns × defers is at
// most 15: one more return here would move both defers, on every invoke,
// to the slower stack-allocated path (go build -gcflags=-d=defer).
func (o *Object) invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sink.Emit(histories.Invoke(o.id, txn.ID, inv.Op, inv.Arg))
	e := o.active.Get(txn.ID)

	// The wait channel and the WaitTimeout timer are allocated on the first
	// block, so a granted invocation allocates neither; the timer bounds the
	// whole blocked wait from then on. The channel is re-registered on every
	// pass through the loop; this deferred cleanup (running before the
	// deferred unlock, so still under o.mu) covers every return path.
	var waitCh chan struct{}
	var timer *time.Timer
	var deadline <-chan time.Time
	defer func() {
		if waitCh != nil {
			o.waiters.Unregister(txn.ID)
		}
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if o.detector != nil {
			if reason := o.detector.Doomed(txn.ID); reason != nil {
				return value.Nil(), fmt.Errorf("locking: %s at %s: %w", txn.ID, o.id, reason)
			}
		}
		// Compute candidate results from the transaction's view. A
		// nondeterministic operation offers several outcomes; the object
		// may choose ANY of them (the specification permits each), so it
		// picks the first one the guard admits — the way nondeterminism
		// buys concurrency (e.g. two semiqueue dequeues choose different
		// elements and proceed in parallel).
		view, err := o.viewOf(e)
		if err != nil {
			o.corrupt(err)
			return value.Nil(), err
		}
		outs := view.Step(inv)
		if len(outs) == 0 {
			return value.Nil(), fmt.Errorf("locking: %s at %s: %w: %s not permitted in state %s",
				txn.ID, o.id, cc.ErrInvalidOp, inv, view.Key())
		}
		others, holders := o.othersOf(txn.ID)
		for _, out := range outs {
			cand := spec.Call{Inv: inv, Result: out.Result}
			allowed, gerr := o.guard.Allowed(o.guardBase(), e.intentions.Calls(), cand, others)
			if gerr != nil {
				// The guard cannot decide (misconfiguration, e.g. a
				// state-based guard over the wrong state type). Fail the
				// invocation rather than wait on a conflict that is not one.
				return value.Nil(), fmt.Errorf("locking: %s at %s: guard: %w", txn.ID, o.id, gerr)
			}
			if allowed {
				o.grant(txn, e, cand, outs)
				return out.Result, nil
			}
		}
		// Blocked: register the wait and sleep until something changes. The
		// object lock is released before calling the detector because
		// SetWaiting may fire wake hooks that re-acquire it; registering
		// under the lock (and draining the latched channel there, where no
		// signaller can race) prevents lost wake-ups.
		o.waits++
		obsWaits.Inc()
		waitStart := time.Now()
		if waitCh == nil {
			waitCh = make(chan struct{}, 1)
			if o.waitTimeout > 0 {
				timer = time.NewTimer(o.waitTimeout)
				deadline = timer.C
			}
		} else {
			select {
			case <-waitCh:
			default:
			}
		}
		o.waiters.Register(txn.ID, waitCh)
		o.mu.Unlock()
		if o.detector != nil {
			if reason := o.detector.SetWaiting(txn.ID, txn.Seq, holders); reason != nil {
				o.detector.ClearWaiting(txn.ID)
				o.mu.Lock() // restore the invariant for the deferred unlock
				return value.Nil(), fmt.Errorf("locking: %s blocked at %s: %w", txn.ID, o.id, reason)
			}
		}
		var timedOut bool
		select {
		case <-waitCh:
		case <-deadline:
			timedOut = true
		}
		if o.detector != nil {
			o.detector.ClearWaiting(txn.ID)
		}
		blocked := time.Since(waitStart)
		obsWaitLat.Observe(int64(blocked))
		if obsTrace.Enabled() {
			obsTrace.Record(obs.TraceEvent{Kind: obs.KindWait, Txn: string(txn.ID), Obj: string(o.id), Dur: blocked})
		}
		o.mu.Lock()
		if timedOut {
			return value.Nil(), fmt.Errorf("locking: %s waited %v at %s: %w", txn.ID, o.waitTimeout, o.id, cc.ErrTimeout)
		}
	}
}

// guardBase is the state the guard reasons from: the committed base for
// deferred update. For update-in-place the base already contains
// uncommitted effects; the static guards permitted in that mode ignore it.
func (o *Object) guardBase() spec.State { return o.base }

// viewOf returns the state a transaction observes: the base itself under
// update in place, otherwise the cached view while the base has not moved
// since it was built, and else the intentions replayed once onto the
// current base and cached. Callers must hold o.mu.
func (o *Object) viewOf(e *txnEntry) (spec.State, error) {
	if o.inPlace {
		return o.base, nil
	}
	if e.view == nil || e.viewGen != o.baseGen {
		view, err := e.intentions.View(o.base)
		if err != nil {
			return nil, err
		}
		e.view, e.viewGen = view, o.baseGen
	}
	return e.view, nil
}

// grant records the call. outs are the outcomes the invocation offered in
// the state viewOf returned in the same critical section; the state the
// call moves to is the first with the granted result, the one
// ccrt.StepMatching picks when the call is replayed. Callers must hold o.mu.
func (o *Object) grant(txn *cc.TxnInfo, e *txnEntry, cand spec.Call, outs []spec.Outcome) {
	o.grants++
	obsGrants.Inc()
	var next spec.State
	for _, out := range outs {
		if out.Result == cand.Result {
			next = out.Next
			break
		}
	}
	if o.inPlace {
		e.undo.Record(o.ty.Invert(o.base, cand.Inv, cand.Result))
		o.setBase(next)
	} else {
		e.view, e.viewGen = next, o.baseGen
	}
	e.intentions.Add(cand)
	o.sink.Emit(histories.Return(o.id, txn.ID, cand.Result))
}

// othersOf returns the non-empty pending blocks of the other active
// transactions and their ids. Callers must hold o.mu. Iteration order is
// made deterministic for reproducible guard decisions.
func (o *Object) othersOf(me histories.ActivityID) ([][]spec.Call, []histories.ActivityID) {
	// Nobody else is active: skip the sort. (A concurrent abort can delete
	// a blocked invoker's own entry, so the length alone does not say so.)
	if n := o.active.Len(); n == 0 || n == 1 && o.active.Lookup(me) != nil {
		return nil, nil
	}
	ids := o.active.SortedIDs(func(id histories.ActivityID, e *txnEntry) bool {
		return id != me && e.intentions.Len() > 0
	})
	blocks := make([][]spec.Call, len(ids))
	for i, id := range ids {
		blocks[i] = o.active.Lookup(id).intentions.Calls()
	}
	return blocks, ids
}

// Prepare implements cc.Resource.
func (o *Object) Prepare(txn *cc.TxnInfo) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.detector != nil {
		if reason := o.detector.Doomed(txn.ID); reason != nil {
			return fmt.Errorf("locking: prepare %s at %s: %w", txn.ID, o.id, reason)
		}
	}
	e := o.active.Lookup(txn.ID)
	if e == nil {
		return fmt.Errorf("locking: prepare %s at %s: %w", txn.ID, o.id, cc.ErrUnknownTxn)
	}
	e.prepared = true
	return nil
}

// Commit implements cc.Resource: the transaction's effects become part of
// the committed base state, and the commit event (timestamped if ts is
// non-zero, for hybrid atomicity) is recorded.
func (o *Object) Commit(txn *cc.TxnInfo, ts histories.Timestamp) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.active.Lookup(txn.ID)
	if e == nil {
		// Committing a transaction that never invoked here is a no-op.
		return
	}
	if !o.inPlace && e.intentions.Len() > 0 {
		// The cached view is installed as is unless another commit moved
		// the base since it was built; only then does viewOf replay, and
		// only then can the replay diverge from what the calls returned.
		next, err := o.viewOf(e)
		if err != nil {
			o.corrupt(fmt.Errorf("locking: commit %s at %s: %w", txn.ID, o.id, err))
			o.active.Delete(txn.ID)
			o.changed()
			return
		}
		o.setBase(next)
	}
	o.active.Delete(txn.ID)
	o.invalidateGuard()
	if ts != histories.TSNone {
		o.sink.Emit(histories.CommitTS(o.id, txn.ID, ts))
	} else {
		o.sink.Emit(histories.Commit(o.id, txn.ID))
	}
	o.changed()
}

// Abort implements cc.Resource: intentions are discarded (deferred update)
// or compensated (update in place), and the abort event is recorded.
func (o *Object) Abort(txn *cc.TxnInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.active.Lookup(txn.ID)
	if e == nil {
		return
	}
	if o.inPlace {
		restored, err := e.undo.Undo(o.base)
		if err != nil {
			o.corrupt(fmt.Errorf("locking: abort %s at %s: %w", txn.ID, o.id, err))
		} else {
			o.setBase(restored)
		}
	}
	o.active.Delete(txn.ID)
	o.invalidateGuard()
	o.sink.Emit(histories.Abort(o.id, txn.ID))
	o.changed()
}

// setBase installs a new committed base and invalidates every cached
// view. Callers must hold o.mu.
func (o *Object) setBase(st spec.State) {
	o.base = st
	o.baseGen++
}

// corrupt records the first internal invariant violation.
func (o *Object) corrupt(err error) {
	if o.broken == nil {
		o.broken = err
	}
}
