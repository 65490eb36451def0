package locking

import (
	"sync"
	"sync/atomic"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
)

// Detector is the global waits-for-graph deadlock detector. Objects report
// "transaction W, born at sequence number s, is waiting for holders
// H₁…Hₙ"; the detector looks for a cycle through the new edges and, if it
// finds one, dooms the youngest transaction in the cycle (the one with the
// largest birth sequence number). Doomed transactions are woken via the
// wake hooks the objects register and observe their fate through Doomed.
//
// Only transactions that wait pay for detection. A transaction enters the
// detector's maps (becomes resident) in SetWaiting and leaves them in
// Forget. Every node on a waits-for cycle has an outgoing edge, so it is a
// waiter and resident with its birth number recorded: victim selection
// needs nothing from transactions that never waited, and a victim is
// always resident before it is doomed. While no transaction is resident,
// Doomed, ClearWaiting and Forget answer from an atomic count without
// taking the mutex, so uncontended transactions share nothing here.
type Detector struct {
	mu     sync.Mutex
	waits  map[histories.ActivityID]map[histories.ActivityID]bool
	seq    map[histories.ActivityID]int64
	doomed map[histories.ActivityID]error
	wakes  []func(histories.ActivityID)

	// resident is len(seq), stored under mu after every change. The keys of
	// waits and doomed are subsets of seq's, so it counts every transaction
	// the maps mention.
	resident atomic.Int64
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{
		waits:  make(map[histories.ActivityID]map[histories.ActivityID]bool),
		seq:    make(map[histories.ActivityID]int64),
		doomed: make(map[histories.ActivityID]error),
	}
}

// RegisterWake adds a targeted hook the detector calls (outside its lock)
// with each doomed transaction's id. The object hosting that transaction's
// blocked wait wakes exactly that waiter; every other object's hook is a
// cheap map miss, so one deadlock victim does not wake every blocked
// transaction in the system.
func (d *Detector) RegisterWake(f func(histories.ActivityID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wakes = append(d.wakes, f)
}

// Resident returns the number of transactions the detector holds state
// for: those that waited (or were doomed) and are not yet forgotten. It is
// zero whenever no transaction is between its first wait and its Forget.
func (d *Detector) Resident() int { return int(d.resident.Load()) }

// Forget removes all record of a finished transaction.
func (d *Detector) Forget(txn histories.ActivityID) {
	if d.resident.Load() == 0 {
		return
	}
	d.mu.Lock()
	delete(d.waits, txn)
	delete(d.seq, txn)
	delete(d.doomed, txn)
	d.resident.Store(int64(len(d.seq)))
	d.mu.Unlock()
}

// Doomed returns the abort reason assigned to txn, or nil.
func (d *Detector) Doomed(txn histories.ActivityID) error {
	if d.resident.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doomed[txn]
}

// SetWaiting records that waiter (born at seq) is blocked on holders, runs
// cycle detection, and returns the waiter's doom reason if the waiter
// itself is (or became) doomed. Victim selection dooms the youngest
// transaction on the detected cycle; if that victim is not the waiter, the
// waiter keeps waiting (the victim is woken through the wake hooks).
func (d *Detector) SetWaiting(waiter histories.ActivityID, seq int64, holders []histories.ActivityID) error {
	d.mu.Lock()
	set := make(map[histories.ActivityID]bool, len(holders))
	for _, h := range holders {
		if h != waiter {
			set[h] = true
		}
	}
	d.waits[waiter] = set
	d.seq[waiter] = seq
	d.resident.Store(int64(len(d.seq)))

	var doomedNow []histories.ActivityID
	for {
		cycle := d.findCycle(waiter)
		if cycle == nil {
			break
		}
		victim := cycle[0]
		for _, t := range cycle[1:] {
			if d.seq[t] > d.seq[victim] {
				victim = t
			}
		}
		d.doomed[victim] = cc.ErrDeadlock
		// A doomed transaction no longer waits; removing its edges breaks
		// the cycle so detection can continue for any remaining cycles.
		delete(d.waits, victim)
		doomedNow = append(doomedNow, victim)
	}
	err := d.doomed[waiter]
	var wakes []func(histories.ActivityID)
	if len(doomedNow) > 0 {
		wakes = append(wakes, d.wakes...)
	}
	d.mu.Unlock()

	// The hooks re-acquire object locks, so they run outside d.mu.
	for _, txn := range doomedNow {
		for _, f := range wakes {
			f(txn)
		}
	}
	return err
}

// ClearWaiting records that waiter is no longer blocked.
func (d *Detector) ClearWaiting(waiter histories.ActivityID) {
	if d.resident.Load() == 0 {
		return
	}
	d.mu.Lock()
	delete(d.waits, waiter)
	d.mu.Unlock()
}

// findCycle returns some cycle reachable from start in the waits-for
// graph, or nil. Doomed transactions are skipped: they no longer hold their
// claims against progress once aborted.
func (d *Detector) findCycle(start histories.ActivityID) []histories.ActivityID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[histories.ActivityID]int)
	var stack []histories.ActivityID
	var cycle []histories.ActivityID

	var dfs func(n histories.ActivityID) bool
	dfs = func(n histories.ActivityID) bool {
		color[n] = gray
		stack = append(stack, n)
		for m := range d.waits[n] {
			if d.doomed[m] != nil {
				continue
			}
			switch color[m] {
			case white:
				if dfs(m) {
					return true
				}
			case gray:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == m {
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	if dfs(start) {
		return cycle
	}
	return nil
}
