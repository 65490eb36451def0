// Package sim builds complete systems (protocol objects + transaction
// manager) for each concurrency-control configuration the experiments
// compare, and runs the paper's workloads against them: the Lamport
// transfer/audit banking mix (§4.3.3), the §5.1 bank-account contention
// workload, and the §5.1 FIFO-queue producer/consumer workload.
package sim

import (
	"errors"
	"fmt"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/mvcc"
	"weihl83/internal/recovery"
	"weihl83/internal/tx"
)

// Kind selects a system configuration: a local atomicity property plus a
// protocol realisation of it.
type Kind int

// System kinds.
const (
	// KindRW2PL: dynamic atomicity via classical read/write two-phase
	// locking (the coarsest baseline).
	KindRW2PL Kind = iota + 1
	// KindCommut: dynamic atomicity via argument-aware commutativity
	// locking (Schwarz & Spector-style).
	KindCommut
	// KindCommutNameOnly: commutativity locking with name-only conflict
	// tables (ablation A3).
	KindCommutNameOnly
	// KindCommutUndo: commutativity locking with update-in-place undo-log
	// recovery (ablation A1).
	KindCommutUndo
	// KindEscrow: state-based dynamic atomicity via the escrow guard
	// (accounts only).
	KindEscrow
	// KindExact: state-based dynamic atomicity via exhaustive arrangement
	// checking.
	KindExact
	// KindMVCC: static atomicity via Reed's multi-version timestamp
	// protocol with data-dependent validation.
	KindMVCC
	// KindMVCCClassical: static atomicity with classical read/write
	// validation (every write behind a later access aborts) — the
	// semantics-free baseline.
	KindMVCCClassical
	// KindHybrid: hybrid atomicity (locking updates, snapshot audits).
	KindHybrid
)

// String returns the kind's short name used in experiment tables.
func (k Kind) String() string {
	switch k {
	case KindRW2PL:
		return "rw-2pl"
	case KindCommut:
		return "commut"
	case KindCommutNameOnly:
		return "commut-nameonly"
	case KindCommutUndo:
		return "commut-undo"
	case KindEscrow:
		return "escrow"
	case KindExact:
		return "exact"
	case KindMVCC:
		return "mvcc"
	case KindMVCCClassical:
		return "mvcc-classical"
	case KindHybrid:
		return "hybrid"
	default:
		return "invalid"
	}
}

// Property returns the local atomicity property the kind implements.
func (k Kind) Property() tx.Property {
	switch k {
	case KindMVCC, KindMVCCClassical:
		return tx.Static
	case KindHybrid:
		return tx.Hybrid
	default:
		return tx.Dynamic
	}
}

// Config configures system construction.
type Config struct {
	// Kind selects the protocol. Required.
	Kind Kind
	// Record enables history recording (offline verification in tests;
	// disabled in benchmarks).
	Record bool
	// Skew, when positive, draws static timestamps from a skewed clock
	// with the given disorder (E6). Ignored by non-static kinds: hybrid
	// atomicity needs a strictly increasing clock.
	Skew int64
	// Seed seeds the skewed clock.
	Seed int64
	// WaitTimeout, when positive, replaces deadlock detection with
	// timeout-based waits (ablation A2).
	WaitTimeout time.Duration
	// SemiQueue substitutes the nondeterministic semiqueue for the FIFO
	// queue in queue workloads (experiment A4).
	SemiQueue bool
	// WAL, when set, write-ahead-logs every commit so the system's state
	// survives a crash-restart (recovery.Restart); chaos runs inject disk
	// faults through it.
	WAL recovery.Backend
	// Backoff paces Run's retries (zero value = defaults).
	Backoff tx.Backoff
}

// System is a ready-to-run system: a manager plus its registered objects.
type System struct {
	Kind     Kind
	Manager  *tx.Manager
	Detector *locking.Detector
	objects  []cc.Resource
}

// Objects returns the registered resources.
func (s *System) Objects() []cc.Resource { return s.objects }

// Err returns the first internal invariant violation across objects that
// track one, or nil.
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

// NewSystem builds a system with the given account objects (named
// acct0..acctN-1) and, for queue workloads, a queue object named "queue".
// Pass wantAccounts/wantQueue to choose the object population.
func NewSystem(cfg Config, wantAccounts int, wantQueue bool) (*System, error) {
	s := &System{Kind: cfg.Kind}
	prop := cfg.Kind.Property()

	var src tx.TimestampSource
	switch {
	case prop == tx.Dynamic:
		src = nil
	case prop == tx.Static && cfg.Skew > 0:
		src = clock.NewSkewed(cfg.Skew, cfg.Seed)
	default:
		src = &clock.Source{}
	}

	var det *locking.Detector
	var doomer tx.Doomer
	if cfg.WaitTimeout <= 0 {
		det = locking.NewDetector()
		doomer = det
	}
	s.Detector = det

	m, err := tx.NewManager(tx.Config{
		Property: prop,
		Clock:    src,
		Detector: doomer,
		Record:   cfg.Record,
		WAL:      cfg.WAL,
		Backoff:  cfg.Backoff,
	})
	if err != nil {
		return nil, err
	}
	s.Manager = m

	addLocking := func(id histories.ObjectID, ty adts.Type, g locking.Guard, inPlace bool) error {
		o, err := locking.New(locking.Config{
			ID:            id,
			Type:          ty,
			Guard:         g,
			Detector:      det,
			WaitTimeout:   cfg.WaitTimeout,
			Sink:          m.Sink(),
			UpdateInPlace: inPlace,
		})
		if err != nil {
			return err
		}
		s.objects = append(s.objects, o)
		return m.Register(o)
	}

	addObject := func(id histories.ObjectID, ty adts.Type, escrowOK bool) error {
		switch cfg.Kind {
		case KindRW2PL:
			return addLocking(id, ty, locking.RWGuard{IsWrite: ty.IsWrite}, false)
		case KindCommut:
			return addLocking(id, ty, locking.TableGuard{Conflicts: ty.Conflicts}, false)
		case KindCommutNameOnly:
			return addLocking(id, ty, locking.TableGuard{Conflicts: ty.ConflictsNameOnly}, false)
		case KindCommutUndo:
			return addLocking(id, ty, locking.TableGuard{Conflicts: ty.Conflicts}, true)
		case KindEscrow:
			if escrowOK {
				return addLocking(id, ty, locking.EscrowGuard{}, false)
			}
			return addLocking(id, ty, locking.ExactGuard{}, false)
		case KindExact:
			return addLocking(id, ty, locking.ExactGuard{}, false)
		case KindMVCC, KindMVCCClassical:
			o, err := mvcc.New(mvcc.Config{
				ID:        id,
				Spec:      ty.Spec,
				Sink:      m.Sink(),
				Commutes:  conflict.StaticForType(ty),
				Classical: cfg.Kind == KindMVCCClassical,
				IsWrite:   ty.IsWrite,
			})
			if err != nil {
				return err
			}
			s.objects = append(s.objects, o)
			return m.Register(o)
		case KindHybrid:
			if det == nil {
				return errors.New("sim: hybrid systems need deadlock detection (WaitTimeout unsupported)")
			}
			g := locking.Guard(locking.TableGuard{Conflicts: ty.Conflicts})
			if escrowOK {
				g = locking.EscrowGuard{}
			}
			o, err := hybridcc.New(hybridcc.Config{ID: id, Type: ty, Guard: g, Detector: det, Sink: m.Sink()})
			if err != nil {
				return err
			}
			s.objects = append(s.objects, o)
			return m.Register(o)
		default:
			return fmt.Errorf("sim: unknown kind %d", cfg.Kind)
		}
	}

	for i := 0; i < wantAccounts; i++ {
		id := histories.ObjectID(fmt.Sprintf("acct%d", i))
		if err := addObject(id, adts.Account(), true); err != nil {
			return nil, err
		}
	}
	if wantQueue {
		qt := adts.Queue()
		if cfg.SemiQueue {
			qt = adts.SemiQueue()
		}
		if err := addObject("queue", qt, false); err != nil {
			return nil, err
		}
	}
	return s, nil
}
