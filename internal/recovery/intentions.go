// Package recovery provides the recovery substrate the paper's protocols
// assume: intentions lists (deferred update, after [Lampson & Sturgis],
// which §4.1 pairs with the locking protocols), undo logs (update in
// place with compensating operations), and a write-ahead log with crash and
// restart simulation.
package recovery

import (
	"fmt"

	"weihl83/internal/ccrt"
	"weihl83/internal/spec"
)

// IntentionsList is the deferred-update recovery representation: the
// sequence of calls a transaction has executed at one object, to be applied
// to the committed base state at commit and simply discarded at abort.
//
// A live object need not replay the list to learn that state: locking.Object
// keeps each transaction's view (base plus intentions) and advances it with
// every grant, so View and Apply run only when the committed base moved
// since the view was built — at the next invoke or at commit — and at
// recovery, where the logged calls are redone onto the recovered base.
type IntentionsList struct {
	calls []spec.Call
}

// Add appends a call to the list.
func (l *IntentionsList) Add(c spec.Call) { l.calls = append(l.calls, c) }

// Calls returns the recorded calls. The returned slice is shared; callers
// must not modify it.
func (l *IntentionsList) Calls() []spec.Call { return l.calls }

// Len returns the number of recorded calls.
func (l *IntentionsList) Len() int { return len(l.calls) }

// Clone returns a deep copy.
func (l *IntentionsList) Clone() *IntentionsList {
	out := &IntentionsList{calls: make([]spec.Call, len(l.calls))}
	copy(out.calls, l.calls)
	return out
}

// Apply replays the intentions onto base and returns the resulting state,
// selecting the resolution of nondeterministic operations the object
// actually chose (ccrt.StepMatching). It verifies that each call's recorded
// result is achievable — a failure means the concurrency-control layer
// granted an operation whose outcome depended on the serialization order,
// and is reported as an error rather than silently installing a divergent
// state.
func (l *IntentionsList) Apply(base spec.State) (spec.State, error) {
	st := base
	for i, c := range l.calls {
		next, err := ccrt.StepMatching(st, c)
		if err != nil {
			return nil, fmt.Errorf("recovery: intention %d: %w", i, err)
		}
		st = next
	}
	return st, nil
}

// View computes the transaction-local view: base plus the intentions,
// replayed with the resolutions the object recorded.
func (l *IntentionsList) View(base spec.State) (spec.State, error) {
	return l.Apply(base)
}
