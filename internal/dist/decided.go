package dist

import (
	"weihl83/internal/cc"
	"weihl83/internal/histories"
)

// decidedPageSeqs is how many numbered transactions one page of a decided
// table covers: two bitsets of 4096 bits, 1 KiB in all.
const decidedPageSeqs = 1 << 12

// decidedPage holds the outcomes of the numbered transactions seq with
// seq/decidedPageSeqs equal to its key: bit seq%decidedPageSeqs of known is
// set once an outcome is known, and the same bit of commit tells which.
type decidedPage struct {
	known  [decidedPageSeqs / 64]uint64
	commit [decidedPageSeqs / 64]uint64
}

// decidedTable is a node's volatile table of transaction outcomes, the
// decided table of a site and of a coordinator: true committed, false
// aborted, absent unknown. It answers exactly as a map from id to outcome
// would, but a numbered transaction — an id cc.TxnID made, the only ids a
// transaction runtime gives out — costs two bits in a page indexed by its
// sequence number rather than a string-keyed map entry. Every other id
// (replica deliveries repl!…, migrations M<n>:obj, test fixtures) lives in
// a plain map beside the pages. The table only grows: a bound on it is
// ROADMAP item 5's. Not safe for concurrent use; its owner's mutex guards
// it. A nil table — a crashed node's — knows nothing.
type decidedTable struct {
	pages map[int64]*decidedPage
	other map[histories.ActivityID]bool
}

// newDecidedTable returns an empty table.
func newDecidedTable() *decidedTable {
	return &decidedTable{
		pages: make(map[int64]*decidedPage),
		other: make(map[histories.ActivityID]bool),
	}
}

// decidedFrom returns a table holding the outcomes of m (a log fold's
// Decided map).
func decidedFrom(m map[histories.ActivityID]bool) *decidedTable {
	d := newDecidedTable()
	for txn, commit := range m {
		d.set(txn, commit)
	}
	return d
}

// set records txn's outcome, replacing any earlier one.
func (d *decidedTable) set(txn histories.ActivityID, commit bool) {
	seq, ok := cc.TxnSeq(txn)
	if !ok {
		d.other[txn] = commit
		return
	}
	p := d.pages[seq/decidedPageSeqs]
	if p == nil {
		p = &decidedPage{}
		d.pages[seq/decidedPageSeqs] = p
	}
	w, bit := (seq%decidedPageSeqs)/64, uint64(1)<<(seq%64)
	p.known[w] |= bit
	if commit {
		p.commit[w] |= bit
	} else {
		p.commit[w] &^= bit
	}
}

// get returns txn's outcome and whether one is known.
func (d *decidedTable) get(txn histories.ActivityID) (commit, ok bool) {
	if d == nil {
		return false, false
	}
	seq, numbered := cc.TxnSeq(txn)
	if !numbered {
		commit, ok = d.other[txn]
		return commit, ok
	}
	p := d.pages[seq/decidedPageSeqs]
	if p == nil {
		return false, false
	}
	w, bit := (seq%decidedPageSeqs)/64, uint64(1)<<(seq%64)
	return p.commit[w]&bit != 0, p.known[w]&bit != 0
}

// outcome answers txn's fate from the table: Unknown when it holds no
// outcome — or is nil, wiped by a crash.
func (d *decidedTable) outcome(txn histories.ActivityID) Outcome {
	commit, ok := d.get(txn)
	switch {
	case !ok:
		return OutcomeUnknown
	case commit:
		return OutcomeCommitted
	default:
		return OutcomeAborted
	}
}
