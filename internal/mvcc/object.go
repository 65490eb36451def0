// Package mvcc implements static atomicity online: a generalisation of
// Reed's timestamp-based multi-version protocol [Reed 78] to objects with
// user-specified operations (§4.2).
//
// Every transaction chooses a unique timestamp before invoking any
// operation. Each object keeps its history as a timestamp-ordered log of
// per-transaction entries. An invocation by the transaction with timestamp
// t:
//
//  1. waits until every earlier-timestamped entry of another transaction is
//     committed (the generalisation of reading a definite version —
//     Reed's "possibility" wait). Waits only ever point at smaller
//     timestamps, so they cannot deadlock;
//  2. computes its result from the state reached by replaying all entries
//     with timestamps below t plus the transaction's own prior calls;
//  3. validates every later-timestamped entry: if inserting the new call
//     would change any recorded later result, the invoker must abort
//     (cc.ErrConflict) — the generalisation of "a write is rejected when a
//     later read has already seen the previous version". Operations that do
//     not change the state never invalidate anyone, so read-only
//     transactions are never aborted (§4.2.3).
//
// Commit marks the entry permanent; abort removes it (no other result ever
// depended on it, thanks to rule 1).
package mvcc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"weihl83/internal/cc"
	"weihl83/internal/ccrt"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Observability. Chain length is observed at each grant so the histogram
// tracks how long the version log actually gets under load, not just its
// final size. Conflicts are counted under the uniform
// cc.<protocol>.conflicts scheme.
var (
	obsGrants    = obs.Default.Counter("mvcc.grants")
	obsWaits     = obs.Default.Counter("mvcc.waits")
	obsConflicts = obs.Default.Counter("cc.mvcc.conflicts")
	obsFastpath  = obs.Default.Counter("cc.mvcc.commute_fastpath")
	obsWaitLat   = obs.Default.Histogram("mvcc.wait_ns")
	obsChainLen  = obs.Default.Histogram("mvcc.chain.len")
	obsTrace     = obs.Default.Tracer()
)

// Config configures a multi-version object.
type Config struct {
	// ID is the object's identifier in recorded histories. Required.
	ID histories.ObjectID
	// Spec is the object's serial specification. Required.
	Spec spec.SerialSpec
	// Sink receives history events; nil disables recording.
	Sink cc.EventSink
	// CompactAfter folds the committed prefix of the version log into a
	// base snapshot once the log exceeds this many entries (Reed's version
	// truncation). A transaction whose timestamp falls below the truncated
	// watermark is aborted with cc.ErrConflict. Zero selects the default
	// (64); negative disables compaction (histories recorded for offline
	// checking keep every version).
	CompactAfter int
	// Commutes, when non-nil, short-circuits rule-3 validation through the
	// shared static conflict cascade: a deterministic invocation that
	// statically commutes with every call of every later-timestamped entry
	// cannot change any recorded later result, so the per-entry replay is
	// skipped. Purely an optimisation — the replay validation remains the
	// authority whenever the cascade cannot decide.
	Commutes *conflict.Static
	// Classical selects read/write validation instead of the
	// data-dependent rule: a state-changing invocation aborts whenever ANY
	// later-timestamped entry exists, whether or not its recorded results
	// would actually change — the behaviour of multi-version timestamp
	// ordering without type-specific semantics, kept as the baseline the
	// paper's §5 argues against. IsWrite classifies operations; required
	// when Classical is set.
	Classical bool
	// IsWrite classifies operations for Classical mode.
	IsWrite func(op string) bool
}

// entry is one transaction's section of the version log.
type entry struct {
	ts        histories.Timestamp
	txn       histories.ActivityID
	calls     []spec.Call
	committed bool
	// mutated records whether any granted call changed the state. Entries
	// that are pure observations need not be waited for: they contribute
	// nothing to any prefix state (Reed's reads never delay writers), and
	// rule 3 still protects their recorded results.
	mutated bool
}

// Object is a static-atomicity (multi-version timestamp ordering) object.
// It implements cc.Resource.
type Object struct {
	id    histories.ObjectID
	specc spec.SerialSpec
	sink  cc.EventSink

	mu           sync.Mutex
	waiters      ccrt.WaitSet
	entries      []*entry // sorted by ts, all above baseTS
	base         spec.State
	baseTS       histories.Timestamp
	compactAfter int
	commutes     *conflict.Static
	classical    bool
	isWrite      func(op string) bool
	seen         map[histories.ActivityID]bool

	grants    int64
	waits     int64
	conflicts int64
}

var _ cc.Resource = (*Object)(nil)

// New validates cfg and returns a multi-version object.
func New(cfg Config) (*Object, error) {
	if cfg.ID == "" {
		return nil, errors.New("mvcc: Config.ID is required")
	}
	if cfg.Spec == nil {
		return nil, errors.New("mvcc: Config.Spec is required")
	}
	if cfg.Classical && cfg.IsWrite == nil {
		return nil, errors.New("mvcc: Classical mode requires IsWrite")
	}
	compact := cfg.CompactAfter
	if compact == 0 {
		compact = 64
	}
	return &Object{
		id:           cfg.ID,
		specc:        cfg.Spec,
		sink:         cfg.Sink,
		base:         cfg.Spec.Init(),
		compactAfter: compact,
		commutes:     cfg.Commutes,
		classical:    cfg.Classical,
		isWrite:      cfg.IsWrite,
		seen:         make(map[histories.ActivityID]bool),
	}, nil
}

// ObjectID implements cc.Resource.
func (o *Object) ObjectID() histories.ObjectID { return o.id }

// Stats returns (granted invocations, waits entered, conflicts raised).
func (o *Object) Stats() (grants, waits, conflicts int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.grants, o.waits, o.conflicts
}

// CommittedState replays all committed entries in timestamp order (for
// tests and tools).
func (o *Object) CommittedState() (spec.State, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.base
	for _, e := range o.entries {
		if !e.committed {
			continue
		}
		var err error
		st, err = replay(st, e.calls)
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// compact folds the committed prefix of the log into the base snapshot.
// Callers must hold o.mu. Entries are foldable while they are committed:
// nothing below an uncommitted entry may move, because that transaction may
// still abort. Transactions arriving with timestamps at or below the new
// watermark are rejected with cc.ErrConflict (their versions are gone).
func (o *Object) compact() {
	if o.compactAfter < 0 || len(o.entries) <= o.compactAfter {
		return
	}
	n := 0
	st := o.base
	for _, e := range o.entries {
		if !e.committed {
			break
		}
		next, err := replay(st, e.calls)
		if err != nil {
			return // leave the log intact; Err-style divergence is caught elsewhere
		}
		st = next
		n++
	}
	if n == 0 {
		return
	}
	o.base = st
	o.baseTS = o.entries[n-1].ts
	o.entries = append([]*entry(nil), o.entries[n:]...)
}

// changed wakes every blocked waiter: a commit, abort, or
// newly-mutating entry may unblock any rule-1 wait. Callers must hold o.mu.
func (o *Object) changed() {
	o.waiters.WakeAll()
}

// findEntry returns the transaction's entry, or nil.
func (o *Object) findEntry(txn histories.ActivityID) *entry {
	for _, e := range o.entries {
		if e.txn == txn {
			return e
		}
	}
	return nil
}

// insertEntry adds a fresh entry in timestamp position.
func (o *Object) insertEntry(e *entry) {
	i := sort.Search(len(o.entries), func(i int) bool { return o.entries[i].ts >= e.ts })
	o.entries = append(o.entries, nil)
	copy(o.entries[i+1:], o.entries[i:len(o.entries)-1])
	o.entries[i] = e
}

// replay applies calls requiring each recorded result to be achievable,
// selecting the matching resolution of nondeterministic operations
// (delegated to the shared runtime kernel).
func replay(st spec.State, calls []spec.Call) (spec.State, error) {
	return ccrt.Replay(st, calls)
}

// Invoke implements cc.Resource. txn.TS must be set (the initiation
// timestamp); the first invocation by a transaction records its initiate
// event.
func (o *Object) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	if txn.TS == histories.TSNone {
		return value.Nil(), fmt.Errorf("mvcc: transaction %s has no timestamp", txn.ID)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.seen[txn.ID] {
		o.seen[txn.ID] = true
		o.sink.Emit(histories.Initiate(o.id, txn.ID, txn.TS))
	}
	o.sink.Emit(histories.Invoke(o.id, txn.ID, inv.Op, inv.Arg))
	if txn.TS <= o.baseTS {
		// The versions below this timestamp have been truncated away.
		o.conflicts++
		obsConflicts.Inc()
		return value.Nil(), fmt.Errorf("mvcc: %s(ts %d) at %s below compaction watermark %d: %w",
			txn.ID, txn.TS, o.id, o.baseTS, cc.ErrConflict)
	}

	// Rule 1: wait until every earlier *mutating* entry of another
	// transaction is committed. Pure observations below our timestamp are
	// invisible to the prefix state, so they impose no wait — this is what
	// makes read-only activities "rarely delay" others (§4.2.3).
	var waitCh chan struct{}
	for {
		blocked := false
		for _, e := range o.entries {
			if e.ts < txn.TS && e.txn != txn.ID && !e.committed && e.mutated {
				blocked = true
				break
			}
		}
		if !blocked {
			break
		}
		o.waits++
		obsWaits.Inc()
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
		waited := time.Since(waitStart)
		obsWaitLat.Observe(int64(waited))
		if obsTrace.Enabled() {
			obsTrace.Record(obs.TraceEvent{Kind: obs.KindWait, Txn: string(txn.ID), Obj: string(o.id), Dur: waited})
		}
		o.mu.Lock()
	}
	if waitCh != nil {
		o.waiters.Unregister(txn.ID)
	}

	// Rule 2: compute the result from the prefix below our timestamp plus
	// our own prior calls.
	st := o.base
	var mine *entry
	var later []*entry
	for _, e := range o.entries {
		switch {
		case e.txn == txn.ID:
			mine = e
		case e.ts < txn.TS:
			if !e.committed && !e.mutated {
				continue // uncommitted pure observation: no state effect
			}
			var err error
			st, err = replay(st, e.calls)
			if err != nil {
				return value.Nil(), err
			}
		default:
			later = append(later, e)
		}
	}
	if mine != nil {
		var err error
		st, err = replay(st, mine.calls)
		if err != nil {
			return value.Nil(), err
		}
	}
	outs := st.Step(inv)
	if len(outs) == 0 {
		return value.Nil(), fmt.Errorf("mvcc: %s at %s: %w: %s not permitted in state %s",
			txn.ID, o.id, cc.ErrInvalidOp, inv, st.Key())
	}

	// Classical read/write validation: without the type's semantics, any
	// write behind a later-timestamped access must be assumed to
	// invalidate it.
	if o.classical && o.isWrite(inv.Op) && len(later) > 0 {
		o.conflicts++
		obsConflicts.Inc()
		return value.Nil(), fmt.Errorf("mvcc: %s(ts %d) at %s writes below %s(ts %d) (classical rule): %w",
			txn.ID, txn.TS, o.id, later[0].txn, later[0].ts, cc.ErrConflict)
	}

	// Rule-3 fast path: an invocation with a single permissible outcome
	// that statically commutes (shared cascade) with every call of every
	// later-timestamped entry cannot change any recorded later result, so
	// the per-entry replay validation is skipped. Restricted to
	// deterministic outcomes: commutativity of the invocation pair is what
	// the tables certify, and with one outcome there is no resolution
	// choice left that could disagree with a later entry.
	if o.commutes != nil && !o.classical && len(outs) == 1 && len(later) > 0 {
		all := true
		for _, e := range later {
			if !o.commutes.CommutesWithAll(inv, e.calls) {
				all = false
				break
			}
		}
		if all {
			obsFastpath.Inc()
			later = nil // validated by commutativity; skip the replays
		}
	}

	// Rule 3: validate all later entries against the extended prefix. A
	// nondeterministic operation offers several permissible outcomes; the
	// object chooses one that leaves every later recorded result intact,
	// aborting only if none does.
	var cand spec.Call
	var chosen spec.State
	var lastErr error
	for _, out := range outs {
		lst := out.Next
		ok := true
		for _, e := range later {
			var err error
			lst, err = replay(lst, e.calls)
			if err != nil {
				ok = false
				lastErr = fmt.Errorf("mvcc: %s(ts %d) at %s invalidates %s(ts %d): %w",
					txn.ID, txn.TS, o.id, e.txn, e.ts, cc.ErrConflict)
				break
			}
		}
		if ok {
			cand = spec.Call{Inv: inv, Result: out.Result}
			chosen = out.Next
			break
		}
	}
	if chosen == nil {
		o.conflicts++
		obsConflicts.Inc()
		return value.Nil(), lastErr
	}

	if mine == nil {
		mine = &entry{ts: txn.TS, txn: txn.ID}
		o.insertEntry(mine)
	}
	mine.calls = append(mine.calls, cand)
	if chosen.Key() != st.Key() {
		mine.mutated = true
		// A transaction that was treated as a pure observation has begun
		// mutating; wake any later transaction so it re-examines rule 1.
		o.changed()
	}
	o.grants++
	obsGrants.Inc()
	obsChainLen.Observe(int64(len(o.entries)))
	o.sink.Emit(histories.Return(o.id, txn.ID, cand.Result))
	return cand.Result, nil
}

// Prepare implements cc.Resource. Validation happened at invocation time;
// prepare always succeeds for known transactions.
func (o *Object) Prepare(txn *cc.TxnInfo) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.findEntry(txn.ID) == nil && !o.seen[txn.ID] {
		return fmt.Errorf("mvcc: prepare %s at %s: %w", txn.ID, o.id, cc.ErrUnknownTxn)
	}
	return nil
}

// Commit implements cc.Resource.
func (o *Object) Commit(txn *cc.TxnInfo, _ histories.Timestamp) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.seen[txn.ID] {
		return
	}
	if e := o.findEntry(txn.ID); e != nil {
		e.committed = true
	}
	delete(o.seen, txn.ID)
	o.sink.Emit(histories.Commit(o.id, txn.ID))
	o.compact()
	o.changed()
}

// Abort implements cc.Resource: the transaction's entry is removed. No
// other transaction's recorded result ever depended on it (rule 1), so the
// removal invalidates nothing.
func (o *Object) Abort(txn *cc.TxnInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.seen[txn.ID] && o.findEntry(txn.ID) == nil {
		return
	}
	for i, e := range o.entries {
		if e.txn == txn.ID {
			o.entries = append(o.entries[:i], o.entries[i+1:]...)
			break
		}
	}
	delete(o.seen, txn.ID)
	o.sink.Emit(histories.Abort(o.id, txn.ID))
	o.changed()
}
