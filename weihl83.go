// Package weihl83 is a library of atomic abstract data types with
// data-dependent concurrency control and recovery, reproducing
//
//	William E. Weihl, "Data-dependent Concurrency Control and Recovery
//	(Extended Abstract)", PODC 1983.
//
// A System hosts a set of typed objects (sets, counters, bank accounts,
// FIFO queues, registers, directories, seat maps — or any user-defined
// serial specification) under one of the paper's three optimal local
// atomicity properties:
//
//   - Dynamic atomicity — commutativity-based locking with intentions-list
//     recovery. Conflict granularity is selectable per object, from
//     classical read/write locks down to state-based tests that let two
//     bank withdrawals run concurrently when the balance covers both
//     (§5.1 of the paper).
//   - Static atomicity — Reed's multi-version timestamp protocol
//     generalised to user-defined operations.
//   - Hybrid atomicity — locking for updates with commit-time timestamps;
//     read-only transactions (audits) read timestamped snapshots, never
//     block updates and never abort.
//
// Transactions are goroutine-friendly: Begin/Invoke/Commit/Abort, or the
// automatically retrying Run/RunReadOnly. A System can record its event
// history and check it offline against the paper's formal definitions
// (Checker), which is also how the library's own test suite validates the
// protocols.
package weihl83

import (
	"context"
	"errors"
	"fmt"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/conflict"
	"weihl83/internal/core"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/mvcc"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// Re-exported fundamental types. These aliases give the public API one
// vocabulary while the implementation lives in internal packages.
type (
	// Value is the type of operation arguments and results.
	Value = value.Value
	// History is a recorded event sequence in the paper's model.
	History = histories.History
	// Event is one history event.
	Event = histories.Event
	// ObjectID names an object.
	ObjectID = histories.ObjectID
	// ActivityID names a transaction (activity).
	ActivityID = histories.ActivityID
	// Timestamp is a logical timestamp.
	Timestamp = histories.Timestamp
	// ADT bundles a serial specification with its commutativity structure.
	ADT = adts.Type
	// SerialSpec is a user-definable serial specification.
	SerialSpec = spec.SerialSpec
	// Invocation is an operation invocation.
	Invocation = spec.Invocation
	// Txn is a transaction handle. A Txn is a sequential activity; it must
	// not be shared between goroutines.
	Txn = tx.Txn
	// Checker decides the paper's atomicity properties offline.
	Checker = core.Checker
	// Disk is the in-memory stable-storage model used for write-ahead
	// logging and crash-restart simulation — and the backend of choice for
	// deterministic fault injection.
	Disk = recovery.Disk
	// Backend is the stable-storage seam: any write-ahead-log
	// implementation a System can log to. Disk (in-memory, fault-
	// injectable) and FileWAL (file-backed, segmented, fsync-batched)
	// both satisfy it.
	Backend = recovery.Backend
	// FileWAL is the file-backed segmented write-ahead log: CRC32C-framed
	// records, one fsync per group-commit batch, segment rotation with an
	// on-disk checkpoint manifest, and torn-tail trimming at recovery.
	FileWAL = recovery.FileWAL
	// Backoff configures Run's retry pacing: capped exponential backoff
	// with equal jitter (the zero value selects the defaults).
	Backoff = tx.Backoff
	// Pacer paces one externally-driven retry chain with a Backoff policy:
	// callers that run their own retry loop (network clients retrying on
	// server-side shed, harnesses that count attempts) get the same capped
	// exponential backoff with equal jitter that Run uses internally. A
	// Pacer is one retry chain; it is not safe for concurrent use.
	Pacer = tx.Pacer
	// Injector is a seeded deterministic fault injector: decisions are a
	// pure function of (seed, point, hit), so a seed replays its fault
	// schedule exactly. Attach one with Disk.SetInjector (stable-storage
	// faults) or the dist package's Network/Site hooks (message and crash
	// faults).
	Injector = fault.Injector
	// FaultPoint names an injectable fault site.
	FaultPoint = fault.Point
	// FaultRule sets a point's firing probability, activation limit and
	// delay.
	FaultRule = fault.Rule
)

// NewInjector returns a fault injector whose schedule is pinned by seed.
func NewInjector(seed int64) *Injector { return fault.New(seed) }

// NewPacer returns a standalone retry pacer under backoff policy b (the
// zero value selects the defaults). External clients pace their retries —
// against server-side shed, resource outages, anything Retryable — with
// the same jittered-backoff machinery the transaction runtime uses, without
// importing internal packages.
func NewPacer(b Backoff) *Pacer { return tx.NewPacer(b) }

// Fault points injectable at this package's level: the stable-storage
// hazards of a Disk. (The dist package consults the message and
// site-crash points.)
const (
	// DiskAppendFail makes a write-ahead-log append write nothing and
	// report a retryable failure.
	DiskAppendFail = fault.DiskAppendFail
	// DiskAppendTorn makes an append persist only a prefix of its
	// intentions; restart discards the torn record.
	DiskAppendTorn = fault.DiskAppendTorn
	// DiskCheckpointTorn makes a Checkpoint's snapshot record tear: the
	// log is left uncompacted and restart falls back to replaying it in
	// full.
	DiskCheckpointTorn = fault.DiskCheckpointTorn
	// DiskWriteTorn makes a file-backed WAL frame write tear: a prefix of
	// the frame reaches the file, the backend repairs by truncating, and
	// the caller sees a retryable failure (FileWAL only).
	DiskWriteTorn = fault.DiskWriteTorn
	// DiskFsyncFail makes the fsync forcing a group-commit batch fail:
	// every transaction in the batch aborts retryably and nothing from the
	// batch survives restart (FileWAL only).
	DiskFsyncFail = fault.DiskFsyncFail
)

// Property selects the local atomicity property a System enforces.
type Property = tx.Property

// Properties.
const (
	// Dynamic atomicity (locking protocols).
	Dynamic = tx.Dynamic
	// Static atomicity (multi-version timestamp ordering).
	Static = tx.Static
	// Hybrid atomicity (locking updates + snapshot audits).
	Hybrid = tx.Hybrid
)

// Guard selects the conflict granularity of a dynamic-atomicity object.
type Guard int

// Guards, coarsest first.
const (
	// GuardRW: classical read/write two-phase locking.
	GuardRW Guard = iota + 1
	// GuardNameOnly: commutativity tables over operation names.
	GuardNameOnly
	// GuardCommut: argument-aware commutativity tables (the default).
	GuardCommut
	// GuardEscrow: constant-time state-based tests (bank accounts).
	GuardEscrow
	// GuardExact: exhaustive state-based dynamic atomicity.
	GuardExact
	// GuardCascade: the tiered conflict engine — name table, argument
	// predicate, per-block summary, then memoised exact search. Grants
	// exactly what GuardExact grants; the static tiers and the decision
	// cache make it cheap.
	GuardCascade
)

// Options configures a System.
type Options struct {
	// Property selects the local atomicity property. Required.
	Property Property
	// Record enables history recording for offline checking.
	Record bool
	// WaitTimeout replaces deadlock detection with bounded waits.
	WaitTimeout time.Duration
	// MaxRetries bounds Run's automatic retries (default 100).
	MaxRetries int
	// WAL, when non-nil, receives intentions and commit records, enabling
	// Restart. Use a &Disk{} for the in-memory model or OpenFileWAL for
	// real file-backed durability.
	WAL Backend
	// Backoff paces Run's retries (zero value = capped exponential backoff
	// with equal jitter at the defaults).
	Backoff Backoff
}

// System is a collection of atomic objects plus a transaction manager.
type System struct {
	opts     Options
	manager  *tx.Manager
	detector *locking.Detector
	clock    *clock.Source
	specs    map[histories.ObjectID]spec.SerialSpec
	objects  map[histories.ObjectID]cc.Resource
}

// NewSystem creates an empty system.
func NewSystem(opts Options) (*System, error) {
	s := &System{
		opts:    opts,
		clock:   &clock.Source{},
		specs:   make(map[histories.ObjectID]spec.SerialSpec),
		objects: make(map[histories.ObjectID]cc.Resource),
	}
	var doomer tx.Doomer
	if opts.WaitTimeout <= 0 {
		s.detector = locking.NewDetector()
		doomer = s.detector
	}
	m, err := tx.NewManager(tx.Config{
		Property:   opts.Property,
		Clock:      s.clock,
		Detector:   doomer,
		Record:     opts.Record,
		MaxRetries: opts.MaxRetries,
		WAL:        opts.WAL,
		Backoff:    opts.Backoff,
	})
	if err != nil {
		return nil, fmt.Errorf("weihl83: %w", err)
	}
	s.manager = m
	return s, nil
}

// ObjectOption customises one object.
type ObjectOption func(*objectConfig)

type objectConfig struct {
	guard   Guard
	undoLog bool
	initial spec.State
}

// withInitial seeds the object's committed base state (crash recovery).
func withInitial(st spec.State) ObjectOption {
	return func(c *objectConfig) { c.initial = st }
}

// WithGuard selects the conflict granularity (dynamic and hybrid systems).
func WithGuard(g Guard) ObjectOption {
	return func(c *objectConfig) { c.guard = g }
}

// WithUndoLog selects update-in-place undo-log recovery instead of
// intentions lists (dynamic systems; requires an invertible type and a
// table or read/write guard).
func WithUndoLog() ObjectOption {
	return func(c *objectConfig) { c.undoLog = true }
}

// AddObject adds a typed object to the system under the given name.
func (s *System) AddObject(id ObjectID, t ADT, opts ...ObjectOption) error {
	if _, dup := s.objects[id]; dup {
		return fmt.Errorf("weihl83: duplicate object %q", id)
	}
	cfg := objectConfig{guard: GuardCommut}
	for _, o := range opts {
		o(&cfg)
	}
	var r cc.Resource
	var err error
	switch s.opts.Property {
	case Dynamic:
		g, gerr := buildGuard(cfg.guard, t)
		if gerr != nil {
			return gerr
		}
		r, err = locking.New(locking.Config{
			ID:            id,
			Type:          t,
			Guard:         g,
			Detector:      s.detector,
			WaitTimeout:   s.opts.WaitTimeout,
			Sink:          s.manager.Sink(),
			UpdateInPlace: cfg.undoLog,
			Initial:       cfg.initial,
		})
	case Static:
		r, err = mvcc.New(mvcc.Config{
			ID:       id,
			Spec:     t.Spec,
			Sink:     s.manager.Sink(),
			Commutes: conflict.StaticForType(t),
			IsWrite:  t.IsWrite,
		})
	case Hybrid:
		if s.detector == nil {
			return errors.New("weihl83: hybrid systems require deadlock detection (no WaitTimeout)")
		}
		var g locking.Guard
		g, err = buildGuard(cfg.guard, t)
		if err != nil {
			return err
		}
		r, err = hybridcc.New(hybridcc.Config{
			ID:       id,
			Type:     t,
			Guard:    g,
			Detector: s.detector,
			Sink:     s.manager.Sink(),
		})
	default:
		return fmt.Errorf("weihl83: unknown property %d", s.opts.Property)
	}
	if err != nil {
		return fmt.Errorf("weihl83: object %q: %w", id, err)
	}
	if err := s.manager.Register(r); err != nil {
		return fmt.Errorf("weihl83: object %q: %w", id, err)
	}
	s.objects[id] = r
	s.specs[id] = t.Spec
	return nil
}

func buildGuard(g Guard, t ADT) (locking.Guard, error) {
	switch g {
	case GuardRW:
		return locking.RWGuard{IsWrite: t.IsWrite}, nil
	case GuardNameOnly:
		return locking.TableGuard{Conflicts: t.ConflictsNameOnly}, nil
	case GuardCommut:
		return locking.TableGuard{Conflicts: t.Conflicts}, nil
	case GuardEscrow:
		return locking.EscrowGuard{}, nil
	case GuardExact:
		return locking.ExactGuard{}, nil
	case GuardCascade:
		return conflict.ForType(t), nil
	default:
		return nil, fmt.Errorf("weihl83: unknown guard %d", g)
	}
}

// Begin starts an update transaction.
func (s *System) Begin() *Txn { return s.manager.Begin() }

// BeginReadOnly starts a read-only transaction under any property: its
// mutating operations are refused with the non-retryable "readonly"
// cause, and with a WAL its commit writes its records without waiting for
// them to be forced. Under hybrid atomicity it reads a snapshot, and
// until it commits or aborts every hybrid object keeps the versions that
// snapshot may read: one that is abandoned without either makes the
// objects keep every version committed after it.
func (s *System) BeginReadOnly() *Txn { return s.manager.BeginReadOnly() }

// Run executes fn in a transaction with automatic retry on deadlock or
// timestamp conflicts.
func (s *System) Run(fn func(*Txn) error) error { return s.manager.Run(fn) }

// RunReadOnly is Run with a read-only transaction (see BeginReadOnly): a
// mutating operation fails the first attempt and is not retried.
func (s *System) RunReadOnly(fn func(*Txn) error) error { return s.manager.RunReadOnly(fn) }

// RunCtx is Run bounded by ctx: an expired or cancelled context stops the
// retry chain promptly (before the next attempt and during backoff waits)
// and returns the context's error.
func (s *System) RunCtx(ctx context.Context, fn func(*Txn) error) error {
	return s.manager.RunCtx(ctx, fn)
}

// RunReadOnlyCtx is RunCtx with a read-only transaction.
func (s *System) RunReadOnlyCtx(ctx context.Context, fn func(*Txn) error) error {
	return s.manager.RunReadOnlyCtx(ctx, fn)
}

// History returns the recorded history (empty unless Options.Record).
func (s *System) History() History { return s.manager.History() }

// Stats returns (committed, aborted) transaction counts.
func (s *System) Stats() (commits, aborts int64) { return s.manager.Stats() }

// Checker returns an offline checker pre-registered with the specs of
// every object in the system.
func (s *System) Checker() *Checker {
	ck := core.NewChecker()
	for id, sp := range s.specs {
		ck.Register(id, sp)
	}
	return ck
}

// Err surfaces internal protocol invariant violations (always nil in
// correct operation; the test suite asserts it).
func (s *System) Err() error {
	for _, o := range s.objects {
		type errer interface{ Err() error }
		if e, ok := o.(errer); ok {
			if err := e.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Restart rebuilds the committed state of every object from the
// write-ahead log (Options.WAL) alone, as after a crash: effects of
// transactions without commit records vanish. It returns the recovered
// state keys by object.
func (s *System) Restart() (map[ObjectID]string, error) {
	if s.opts.WAL == nil {
		return nil, errors.New("weihl83: system has no write-ahead log")
	}
	states, err := recovery.Restart(s.opts.WAL, s.specs)
	if err != nil {
		return nil, fmt.Errorf("weihl83: restart: %w", err)
	}
	out := make(map[ObjectID]string, len(states))
	for id, st := range states {
		out[id] = st.Key()
	}
	return out, nil
}

// Checkpoint snapshots the committed state of every object into the
// write-ahead log (Options.WAL) and compacts the log down to that
// snapshot plus the intentions of still-undecided transactions. Restart
// after a checkpoint rebuilds the same states from the much shorter log.
// It returns the estimated bytes reclaimed; a torn checkpoint write
// (fault-injectable via DiskCheckpointTorn) returns an error and leaves
// the full log as the source of truth.
func (s *System) Checkpoint() (int64, error) {
	if s.opts.WAL == nil {
		return 0, errors.New("weihl83: system has no write-ahead log")
	}
	reclaimed, err := s.opts.WAL.Checkpoint(s.specs)
	if err != nil {
		return 0, fmt.Errorf("weihl83: checkpoint: %w", err)
	}
	return reclaimed, nil
}

// OpenFileWAL opens (or creates) a file-backed segmented write-ahead log
// in dir. types names the ADT of every object whose state may appear in an
// on-disk checkpoint snapshot — needed to decode an existing checkpoint at
// open; pass the same table the system's objects are created with. The
// returned backend goes into Options.WAL; close it after the System is
// done.
func OpenFileWAL(dir string, types map[ObjectID]ADT) (*FileWAL, error) {
	specs := make(map[ObjectID]spec.SerialSpec, len(types))
	for id, t := range types {
		specs[id] = t.Spec
	}
	w, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: dir, Specs: specs})
	if err != nil {
		return nil, fmt.Errorf("weihl83: %w", err)
	}
	return w, nil
}

// RecoverObjects rebuilds every named object from the system's write-ahead
// log and registers it: each object is created with its recovered
// committed state as the base. It is the restart half of durable
// operation — open the WAL on the same directory, create an empty System
// with it, then RecoverObjects with the same type table (and object
// options) the objects were originally created with. Only dynamic systems
// support live recovery; the system must not contain the objects yet.
//
// Recovery also resumes the transaction numbering past every identifier
// the log mentions, so identifiers are never reused across reopens.
func (s *System) RecoverObjects(types map[ObjectID]ADT, opts ...ObjectOption) error {
	return s.RecoverObjectsWith(types, func(ObjectID) []ObjectOption { return opts })
}

// RecoverObjectsWith is RecoverObjects with per-object options: optsFor is
// consulted once per object for the options (guard, undo log) that object
// was originally created with. Callers that persist a per-object catalog
// alongside the WAL use this to restore heterogeneous guards.
func (s *System) RecoverObjectsWith(types map[ObjectID]ADT, optsFor func(ObjectID) []ObjectOption) error {
	if s.opts.WAL == nil {
		return errors.New("weihl83: system has no write-ahead log")
	}
	if s.opts.Property != Dynamic {
		return errors.New("weihl83: RecoverObjects requires a dynamic-atomicity system")
	}
	specs := make(map[ObjectID]spec.SerialSpec, len(types))
	for id, t := range types {
		if _, dup := s.objects[id]; dup {
			return fmt.Errorf("weihl83: RecoverObjects: object %q already exists", id)
		}
		specs[id] = t.Spec
	}
	fold := recovery.FoldLog(s.opts.WAL.Records())
	states, _, err := fold.Redo(specs, nil)
	if err != nil {
		return fmt.Errorf("weihl83: recover: %w", err)
	}
	s.manager.ResumeAfter(fold.MaxSeq())
	for id, t := range types {
		var objOpts []ObjectOption
		if optsFor != nil {
			objOpts = optsFor(id)
		}
		if st, ok := states[id]; ok {
			objOpts = append(append([]ObjectOption(nil), objOpts...), withInitial(st))
		}
		if err := s.AddObject(id, t, objOpts...); err != nil {
			return err
		}
	}
	return nil
}

// Retryable reports whether err is a transient protocol abort (deadlock,
// timeout, timestamp conflict) that Run would retry.
func Retryable(err error) bool { return cc.Retryable(err) }

// AbortCause names the protocol reason behind an abort error ("deadlock",
// "timeout", "conflict", "unavailable", ...), the key under which
// aborts-by-cause metrics are counted.
func AbortCause(err error) string { return cc.AbortCause(err) }

// --- Observability -------------------------------------------------------
//
// Every layer of the library reports into one process-wide metrics
// registry: lock-cheap counters and fixed-bucket histograms on the hot
// paths, plus an optional bounded ring of transaction trace events. The
// functions below are the public surface of internal/obs.

type (
	// MetricsSnapshot is one sample of every counter and histogram, with
	// the trace ring's contents when tracing was enabled. It marshals to
	// JSON (see its JSON method) for machine-readable dumps.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot summarises one histogram (count, sum, mean, max
	// and conservative p50/p90/p99).
	HistogramSnapshot = obs.HistogramSnapshot
	// TraceEvent is one entry of the transaction event trace: initiate,
	// invoke/return, conflict waits, retryable aborts, backoff sleeps,
	// two-phase-commit phases, fault activations, site crash/recovery.
	TraceEvent = obs.TraceEvent
	// TraceKind classifies a TraceEvent.
	TraceKind = obs.Kind
)

// Metrics samples the process-wide metrics registry. withTrace additionally
// drains the event tracer's ring into the snapshot.
func Metrics(withTrace bool) MetricsSnapshot { return obs.Default.Snapshot(withTrace) }

// ResetMetrics zeroes every counter, histogram and the trace ring (metric
// identities are preserved, so benchmarks can reset between runs).
func ResetMetrics() { obs.Default.Reset() }

// Trace turns transaction event tracing on or off. Disabled (the default),
// the instrumented hot paths pay one atomic load per potential event;
// enabled, events land in a bounded ring that overwrites the oldest entries.
func Trace(enable bool) {
	if enable {
		obs.Default.Tracer().Enable()
	} else {
		obs.Default.Tracer().Disable()
	}
}

// TraceEvents returns the trace ring's current contents in sequence order.
func TraceEvents() []TraceEvent { return obs.Default.Tracer().Events() }
