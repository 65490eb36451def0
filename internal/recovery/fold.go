package recovery

import (
	"fmt"
	"maps"
	"slices"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
)

// Fate is a transaction's durable fate as one log tells it — the single
// answer every asker (restart, checkpointing, site and coordinator
// recovery, the termination protocol) resolves to.
type Fate int

// Fates. Unknown means the log holds no trace of the transaction. InDoubt
// means a yes-vote is logged (intentions of a 2PC half) with no outcome.
// The numbering is the termination protocol's wire vocabulary.
const (
	FateUnknown Fate = iota
	FateCommitted
	FateAborted
	FateInDoubt
)

// String renders a fate for diagnostics.
func (f Fate) String() string {
	switch f {
	case FateCommitted:
		return "committed"
	case FateAborted:
		return "aborted"
	case FateInDoubt:
		return "in-doubt"
	default:
		return "unknown"
	}
}

// OutcomeRecord is the log record that makes txn's outcome durable.
func OutcomeRecord(txn histories.ActivityID, commit bool) Record {
	if commit {
		return Record{Kind: RecordCommit, Txn: txn}
	}
	return Record{Kind: RecordAbort, Txn: txn}
}

// TxnFate is one row of the fate table: a transaction the log mentions,
// its fate, and what its logged intentions say about it.
type TxnFate struct {
	Txn  histories.ActivityID
	Fate Fate
	// Objects lists the objects the transaction logged intentions for, in
	// log order.
	Objects []histories.ObjectID
	// Participants is the union of the participant lists its intentions
	// carry: the peers an in-doubt recovery polls.
	Participants []string
	// Migrate marks the objects whose intentions are migration halves.
	Migrate map[histories.ObjectID]MigrateDir
}

// Fold is what a log means: the one derivation of every transaction's fate
// from a record sequence, read once, plus the few facts recovery needs
// beside it. The precedence rule lives in observe and nowhere else:
//
//   - torn records fail their checksum and do not exist;
//   - a commit record, or a checkpoint whose Decided set absorbed one, makes
//     the transaction committed — irrevocably: a durable commit wins over an
//     abort record on either side of it (duplicate and late outcome records
//     from a handler racing the in-doubt resolver are benign);
//   - otherwise an abort record makes it aborted;
//   - otherwise logged intentions make it in doubt;
//   - otherwise the log has never heard of it.
//
// A replica record (ReplicaIn) is no transaction's: it is durable on its
// own and identified by its stamp, so it gets no row at all.
type Fold struct {
	recs  []Record
	table map[histories.ActivityID]*TxnFate
	order []*TxnFate // first-seen order
	// replicaTS is the replica watermark: per object, the highest stamp of
	// a ReplicaIn record or a checkpoint's ReplicaTS.
	replicaTS map[histories.ObjectID]histories.Timestamp
	// migrateIn indexes the records whose contribution depends on a fate
	// that may still change (see Add).
	migrateIn []int
	maxSeq    int64
}

// FoldLog folds a record sequence. The fold keeps recs (it never writes to
// them) so Redo can replay intentions at their own log positions.
func FoldLog(recs []Record) *Fold {
	f := &Fold{
		recs:  recs[:len(recs):len(recs)],
		table: make(map[histories.ActivityID]*TxnFate),
	}
	for i := range recs {
		f.observe(i)
	}
	return f
}

// Add extends the fold with a record the caller has just appended to the
// log the fold was read from, keeping it equal to a fresh fold of that log.
func (f *Fold) Add(r Record) {
	f.recs = append(f.recs, r)
	f.observe(len(f.recs) - 1)
}

func (f *Fold) row(txn histories.ActivityID) *TxnFate {
	t := f.table[txn]
	if t == nil {
		t = &TxnFate{Txn: txn}
		f.table[txn] = t
		f.order = append(f.order, t)
		if seq, ok := cc.TxnSeq(txn); ok && seq > f.maxSeq {
			f.maxSeq = seq
		}
	}
	return t
}

func (f *Fold) observe(i int) {
	r := &f.recs[i]
	if r.Torn {
		return
	}
	switch r.Kind {
	case RecordIntentions:
		switch r.Migrate {
		case ReplicaIn:
			f.mark(r.Object, r.TS)
			return
		case MigrateIn:
			f.migrateIn = append(f.migrateIn, i)
		}
		t := f.row(r.Txn)
		t.Objects = append(t.Objects, r.Object)
		if t.Fate == FateUnknown {
			t.Fate = FateInDoubt
		}
		for _, p := range r.Participants {
			if !slices.Contains(t.Participants, p) {
				t.Participants = append(t.Participants, p)
			}
		}
		if r.Migrate != MigrateNone {
			if t.Migrate == nil {
				t.Migrate = make(map[histories.ObjectID]MigrateDir)
			}
			t.Migrate[r.Object] = r.Migrate
		}
	case RecordCommit:
		f.row(r.Txn).Fate = FateCommitted
	case RecordAbort:
		if t := f.row(r.Txn); t.Fate != FateCommitted {
			t.Fate = FateAborted
		}
	case RecordCheckpoint:
		for txn := range r.Decided {
			f.row(txn).Fate = FateCommitted
		}
		for id, ts := range r.ReplicaTS {
			f.mark(id, ts)
		}
	}
}

// mark raises obj's replica watermark to ts.
func (f *Fold) mark(obj histories.ObjectID, ts histories.Timestamp) {
	if f.replicaTS == nil {
		f.replicaTS = make(map[histories.ObjectID]histories.Timestamp)
	}
	if ts > f.replicaTS[obj] {
		f.replicaTS[obj] = ts
	}
}

// Fate returns txn's fate.
func (f *Fold) Fate(txn histories.ActivityID) Fate {
	if t := f.table[txn]; t != nil {
		return t.Fate
	}
	return FateUnknown
}

// Decided returns the transactions with a durable outcome: true for
// committed, false for aborted.
func (f *Fold) Decided() map[histories.ActivityID]bool {
	out := make(map[histories.ActivityID]bool, len(f.order))
	for _, t := range f.order {
		switch t.Fate {
		case FateCommitted:
			out[t.Txn] = true
		case FateAborted:
			out[t.Txn] = false
		}
	}
	return out
}

// InDoubt returns the in-doubt rows in first-seen order.
func (f *Fold) InDoubt() []*TxnFate {
	var out []*TxnFate
	for _, t := range f.order {
		if t.Fate == FateInDoubt {
			out = append(out, t)
		}
	}
	return out
}

// MaxSeq returns the highest transaction sequence number (cc.TxnSeq) among
// the identifiers the log mentions; zero when it mentions none.
func (f *Fold) MaxSeq() int64 { return f.maxSeq }

// Watermarks returns the per-object replica delivery floor: the highest
// stamp among the ReplicaIn records, merged with the watermarks checkpoints
// carried forward. A follower recovering from this log must refuse snapshot
// reads below the floor — every delivery at or below it is already folded
// into the replayed state, so a lower-timestamped read would
// anachronistically observe later effects.
func (f *Fold) Watermarks() map[histories.ObjectID]histories.Timestamp {
	return maps.Clone(f.replicaTS)
}

// HomedAt returns, per object, the placement version its latest committed
// migrate-in installed. Compaction drops committed migration records, so an
// object whose migrate-in a checkpoint absorbed is absent.
func (f *Fold) HomedAt() map[histories.ObjectID]uint64 {
	out := make(map[histories.ObjectID]uint64)
	for _, i := range f.migrateIn {
		if r := &f.recs[i]; f.Fate(r.Txn) == FateCommitted {
			out[r.Object] = r.RingV
		}
	}
	return out
}

// Redo rebuilds the committed state of every object, and which objects the
// log's owner hosts, by replaying the intentions of committed transactions
// in intentions order — the redo pass of intentions-list recovery.
// Transactions the fold does not call committed contribute nothing, which
// is exactly the recoverability half of atomicity: they appear never to
// have run. A replica record applies once, above the highest stamp already
// applied at its object. A checkpoint record resets the replay to its
// snapshot, so a compacted log replays as checkpoint + suffix.
// initialHosted names the objects the owner was seeded with (before any
// migration); nil means every object in specs.
//
// Replaying at the intentions' log position is sound exactly when, per
// object, log order equals install order: the state a live transaction
// observed is the one the installs before it left behind, so redo must
// apply the same calls in the same order. Recorded results do not pin that
// order by themselves — two enqueues an exact guard grants concurrently
// each return ok in either order, yet leave different queues — so whoever
// writes the log must keep the invariant. The transaction runtime does: a
// commit draws its install ticket atomically with its place in the
// group-commit queue, so its intentions, its commit record and its install
// all follow one order (tx.Manager). A dist.Site logs intentions at prepare
// and installs when the decision arrives, so the invariant holds there only
// for transactions whose order the guard fixed (one observed the other's
// effects, hence prepared after the other installed); two it granted
// concurrently may prepare in one order and commit in the other, and are
// redone here in prepare order (dist.TestSiteRedoOrderHole fences that
// hole). The cure is a commit point per object — redo at the position of
// the first commit record — which needs care of its own: duplicate outcome
// records, outcomes a checkpoint absorbed, and commit records the
// termination protocol appends at recovery.
//
// An error names the record that would not replay.
func (f *Fold) Redo(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (map[histories.ObjectID]spec.State, map[histories.ObjectID]bool, error) {
	states := make(map[histories.ObjectID]spec.State, len(specs))
	hosted := make(map[histories.ObjectID]bool, len(specs))
	for id, s := range specs {
		states[id] = s.Init()
		if initialHosted == nil {
			hosted[id] = true
		}
	}
	for id, h := range initialHosted {
		hosted[id] = h
	}
	applied := make(map[histories.ObjectID]histories.Timestamp) // per object, the highest replica stamp redone
	for i := range f.recs {
		r := &f.recs[i]
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			switch {
			case r.Migrate == ReplicaIn:
				// Replica-group record at a follower. A seed adopts the
				// shipped baseline; a delivery falls through to ordinary
				// call replay onto it. Hosting is untouched either way —
				// the follower's copy is a read replica, not a home. A
				// stamp already applied is skipped: logs written before
				// deliveries became single records can repeat a delivery
				// (one whose commit record a crash cut off, then its
				// redelivery) or keep one a later reseed superseded.
				if r.TS <= applied[r.Object] {
					continue
				}
				applied[r.Object] = r.TS
				if st, ok := r.States[r.Object]; ok {
					states[r.Object] = st
					continue
				}
			case f.Fate(r.Txn) != FateCommitted:
				continue
			case r.Migrate == MigrateIn:
				// The committed migration made the copied baseline this
				// site's committed state for the object and took hosting.
				// Client intentions on the object at this site are always
				// logged after the migrate-in they depend on, so position
				// order replays them onto the adopted baseline.
				if st, ok := r.States[r.Object]; ok {
					states[r.Object] = st
				}
				hosted[r.Object] = true
				continue
			case r.Migrate == MigrateOut:
				// The object left this site: its committed state lives at
				// the new home now.
				delete(states, r.Object)
				hosted[r.Object] = false
				continue
			}
			base, ok := states[r.Object]
			if !ok {
				return nil, nil, fmt.Errorf("recovery: record %d (kind %d, txn %s, object %s): log references unknown object", i, r.Kind, r.Txn, r.Object)
			}
			var l IntentionsList
			for _, c := range r.Calls {
				l.Add(c)
			}
			next, err := l.Apply(base)
			if err != nil {
				return nil, nil, fmt.Errorf("recovery: record %d (kind %d, txn %s, object %s): redo: %w", i, r.Kind, r.Txn, r.Object, err)
			}
			states[r.Object] = next
		case RecordCheckpoint:
			// The snapshot summarises everything before it: adopt its
			// states (objects created after the checkpoint keep their
			// initial state). Any transaction undecided at checkpoint time
			// had its intentions re-appended after the checkpoint record by
			// compaction, so they still replay onto the snapshot; replica
			// records at or below its watermark are already in it.
			for id, ts := range r.ReplicaTS {
				applied[id] = max(applied[id], ts)
			}
			for id, st := range r.States {
				// An object absent from the caller's set but hosted per the
				// snapshot migrated in: the snapshot is its baseline.
				if _, known := states[id]; known || r.Hosted[id] {
					states[id] = st
				}
			}
			for id, h := range r.Hosted {
				hosted[id] = h
				// A non-hosted object whose state the snapshot still
				// carries is a follower copy (replica group): keep it —
				// post-checkpoint deliveries replay onto it. A plain
				// migrated-out object has no snapshot state and is dropped.
				if _, keep := r.States[id]; !h && !keep {
					delete(states, id)
				}
			}
		}
	}
	return states, hosted, nil
}

// compact builds the log a checkpoint installs: one checkpoint record — the
// committed-state snapshot Redo rebuilds, the committed set (compaction
// drops the commit records, so outcome queries answer from Decided; aborted
// transactions are forgettable under presumed abort), the hosting snapshot
// when withHosted, and the replica watermark (compaction drops the replica
// records the snapshot folds in) — followed by the intentions of every
// transaction still without an outcome, which replay onto the snapshot once
// decided. Both backends install exactly this sequence.
func (f *Fold) compact(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool, withHosted bool) ([]Record, error) {
	states, hosted, err := f.Redo(specs, initialHosted)
	if err != nil {
		return nil, err
	}
	cp := Record{Kind: RecordCheckpoint, States: states, Decided: make(map[histories.ActivityID]bool)}
	if withHosted {
		cp.Hosted = hosted
	}
	for _, t := range f.order {
		if t.Fate == FateCommitted {
			cp.Decided[t.Txn] = true
		}
	}
	if marks := f.Watermarks(); len(marks) > 0 {
		cp.ReplicaTS = marks
	}
	compacted := []Record{cp}
	for _, r := range f.recs {
		if r.Torn || r.Kind != RecordIntentions || r.Migrate == ReplicaIn {
			continue
		}
		if fate := f.Fate(r.Txn); fate != FateCommitted && fate != FateAborted {
			compacted = append(compacted, r)
		}
	}
	return compacted, nil
}
