package ccrt

import (
	"cmp"
	"slices"

	"weihl83/internal/histories"
)

// tableFreeCap bounds how many recycled entries a Table keeps for reuse.
// Entries are recycled at commit and abort and taken again at a
// transaction's first invoke, so a few cover an object's steady churn.
const tableFreeCap = 4

// Table is the per-transaction entry table a protocol object keeps: one
// entry of protocol-specific state E per active transaction. It is
// externally locked — every method must be called with the owning object's
// mutex held — which is what lets one implementation serve protocols with
// very different entry types without its own synchronization cost.
//
// The entries live in a slice of (id, entry) slots scanned linearly, not
// in a map. A lookup costs one id comparison per active transaction, less
// than the guard already spends on each of them: with 64 others active at
// one object an invoke through commit costs what it does with a map
// (BenchmarkInvokeBeside in internal/locking), and with a map the ledger's
// service workload read a higher commit p90 (EXPERIMENTS D6). A deleted
// slot is filled by the last one. Entries the owner hands back through
// Recycle are reused by later Gets, so a transaction's state at an object
// is recycled, not rebuilt.
type Table[E any] struct {
	slots []Entry[E]
	free  [tableFreeCap]*E
	nfree int
}

// Entry is one active transaction's id and entry.
type Entry[E any] struct {
	ID histories.ActivityID
	E  *E
}

// find returns the index of txn's slot, or -1.
func (t *Table[E]) find(txn histories.ActivityID) int {
	for i := range t.slots {
		if t.slots[i].ID == txn {
			return i
		}
	}
	return -1
}

// Get returns the transaction's entry, creating one if absent: the most
// recently recycled entry when one is kept, else a zero one.
func (t *Table[E]) Get(txn histories.ActivityID) *E {
	if i := t.find(txn); i >= 0 {
		return t.slots[i].E
	}
	var e *E
	if t.nfree > 0 {
		t.nfree--
		e, t.free[t.nfree] = t.free[t.nfree], nil
	} else {
		e = new(E)
	}
	t.slots = append(t.slots, Entry[E]{ID: txn, E: e})
	return e
}

// Lookup returns the transaction's entry, or nil if it has none.
func (t *Table[E]) Lookup(txn histories.ActivityID) *E {
	if i := t.find(txn); i >= 0 {
		return t.slots[i].E
	}
	return nil
}

// Delete removes the transaction's entry and returns it, or nil if it had
// none. The entry is detached, not reused: only Recycle makes it available
// to a later Get.
func (t *Table[E]) Delete(txn histories.ActivityID) *E {
	i := t.find(txn)
	if i < 0 {
		return nil
	}
	e := t.slots[i].E
	last := len(t.slots) - 1
	t.slots[i] = t.slots[last]
	t.slots[last] = Entry[E]{}
	t.slots = t.slots[:last]
	return e
}

// Recycle offers e, an entry Delete returned, for reuse by a later Get.
// The caller must have reset e to the state a new transaction expects and
// must know that nothing still holds it. Beyond the free list's bound the
// entry is left to the collector.
func (t *Table[E]) Recycle(e *E) {
	if t.nfree < tableFreeCap {
		t.free[t.nfree] = e
		t.nfree++
	}
}

// Len returns the number of active entries.
func (t *Table[E]) Len() int { return len(t.slots) }

// Sorted returns the active transactions' ids and entries in lexical id
// order, optionally filtered — deterministic iteration for reproducible
// protocol decisions (guards inspect "the other transactions' pending
// calls" in a fixed order, whatever order the slots are in). The caller
// reads each entry from the result, with no lookup per id.
func (t *Table[E]) Sorted(keep func(histories.ActivityID, *E) bool) []Entry[E] {
	out := make([]Entry[E], 0, len(t.slots))
	for _, s := range t.slots {
		if keep == nil || keep(s.ID, s.E) {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Entry[E]) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
