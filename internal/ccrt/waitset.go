package ccrt

import (
	"weihl83/internal/histories"
	"weihl83/internal/obs"
)

// Wakeup observability: how many wake transitions happen and how many
// waiters each one releases. A broadcast scheme shows fan-out equal to the
// whole wait population on every transition; targeted wakeups show fan-out
// one on detector dooms.
var (
	obsWakeups  = obs.Default.Counter("ccrt.wakeups")
	obsWakeFan  = obs.Default.Histogram("ccrt.wakeup.fanout")
	obsTargeted = obs.Default.Counter("ccrt.wakeups.targeted")
)

// WaitSet tracks the transactions blocked at one protocol object, one
// waiter-owned wakeup channel per waiter. Like Table it is externally
// locked: every method must be called with the owning object's mutex held.
//
// The waiter allocates its channel once per blocked invocation (capacity 1)
// and re-registers the same channel on every pass through its wait loop, so
// the hot contention path allocates nothing per iteration. Wake and WakeAll
// signal with a non-blocking send: the 1-slot buffer latches the wakeup, so
// a signal arriving while the waiter is between Register and its receive is
// never lost, and redundant signals coalesce. Registration happens before
// the object's mutex is released and signalling happens under the same
// mutex, so a state transition after the waiter decided to block cannot be
// missed (no lost wakeups). Entries persist across wake signals and are
// removed only by Unregister; a waiter must Unregister (and drain its
// channel before reuse) on every exit from its wait loop.
//
// An activity is a sequential process, so it waits at no more than one
// object at a time; keying waiters by activity id is therefore unambiguous.
type WaitSet struct {
	waiters map[histories.ActivityID]chan struct{}
}

// Register enrolls txn as blocked on ch, which must have capacity 1.
// Re-registering an already-enrolled txn with the same channel is the
// common per-iteration case and is a plain map store.
func (w *WaitSet) Register(txn histories.ActivityID, ch chan struct{}) {
	if w.waiters == nil {
		w.waiters = make(map[histories.ActivityID]chan struct{})
	}
	w.waiters[txn] = ch
}

// Unregister removes txn's waiter entry without signalling it (the waiter
// stopped blocking on its own: grant, timeout, doom). The entry is dropped
// so a later Wake cannot signal a stale channel.
func (w *WaitSet) Unregister(txn histories.ActivityID) {
	delete(w.waiters, txn)
}

// signal latches a wakeup into ch without blocking: if the waiter already
// has an undrained wakeup pending, the new one coalesces with it.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Wake releases exactly txn's waiter, if it is blocked here. Returns
// whether a waiter was signalled.
func (w *WaitSet) Wake(txn histories.ActivityID) bool {
	ch, ok := w.waiters[txn]
	if !ok {
		return false
	}
	signal(ch)
	obsWakeups.Inc()
	obsTargeted.Inc()
	obsWakeFan.Observe(1)
	return true
}

// WakeAll releases every blocked waiter — the object's state changed in a
// way that may unblock any of them (a commit or abort released claims, an
// entry began mutating). Unlike the detector's doom path this fan-out is
// semantically necessary: the object cannot know which guard now admits
// which waiter without re-running them.
func (w *WaitSet) WakeAll() {
	n := len(w.waiters)
	if n == 0 {
		return
	}
	for _, ch := range w.waiters {
		signal(ch)
	}
	obsWakeups.Inc()
	obsWakeFan.Observe(int64(n))
}

// Has reports whether txn is enrolled as a waiter: blocked here, or woken
// and not yet past its Unregister.
func (w *WaitSet) Has(txn histories.ActivityID) bool {
	_, ok := w.waiters[txn]
	return ok
}

// Len returns the number of blocked waiters.
func (w *WaitSet) Len() int { return len(w.waiters) }
