package ccrt

import (
	"fmt"
	"sort"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
)

// Version is one committed update's section of a version log: the state
// after applying it and every earlier version.
type Version struct {
	TS    histories.Timestamp
	State spec.State
}

// VersionLog is the timestamp-ordered log of committed state snapshots that
// read-only activities are served from (§4.3.3): a hybrid-atomicity object's
// history above its initial state, or a follower's copy above a baseline
// version. Externally locked, like Table and WaitSet.
//
// The kept versions are buf[head:]. Dropping old versions (Reclaim, Trim)
// clears their slots and advances head; Append moves the kept versions back
// to the front of buf when it is full and at least half of it is dropped
// slots, so a log whose length stays bounded reuses one array.
type VersionLog struct {
	buf  []Version
	head int
}

// kept returns the kept versions, oldest first.
func (l *VersionLog) kept() []Version { return l.buf[l.head:] }

// Append adds a version, enforcing that timestamps arrive strictly
// ascending — the invariant the commit sequencer (or, before it, the global
// commit mutex) exists to provide. A violation is a protocol bug, reported
// for the object to record as corruption.
func (l *VersionLog) Append(ts histories.Timestamp, st spec.State) error {
	if n := len(l.buf); n > l.head && ts <= l.buf[n-1].TS {
		return fmt.Errorf("version timestamp %d not above log head %d", ts, l.buf[n-1].TS)
	}
	if len(l.buf) == cap(l.buf) && l.head > 0 && 2*l.head >= len(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf = l.buf[:n]
		l.head = 0
	}
	l.buf = append(l.buf, Version{TS: ts, State: st})
	return nil
}

// drop discards the n oldest kept versions, clearing their slots so the
// dropped states can be collected. Kept versions that fill under a quarter
// of a large array move to a smaller one: an array grown while a long
// reader held the floor down is given back once the floor moves on.
func (l *VersionLog) drop(n int) {
	clear(l.buf[l.head : l.head+n])
	l.head += n
	if k := l.Len(); cap(l.buf) > shrinkCap && 4*k <= cap(l.buf) {
		buf := make([]Version, k, 2*k)
		copy(buf, l.buf[l.head:])
		l.buf, l.head = buf, 0
	}
}

// shrinkCap is the array size up to which drop never reallocates.
const shrinkCap = 64

// Reclaim drops every version older than the newest one below floor: a
// reader at any timestamp at or above floor is still answered exactly by
// StateBelow, and nothing below floor is answered any more. It is a no-op
// when fewer than two versions are below floor.
func (l *VersionLog) Reclaim(floor histories.Timestamp) {
	kept := l.kept()
	if len(kept) < 2 || kept[1].TS >= floor {
		return
	}
	// Index of the oldest version at or above floor; the one before it is
	// the newest below floor, the oldest one kept.
	i := sort.Search(len(kept), func(i int) bool { return kept[i].TS >= floor })
	l.drop(i - 1)
}

// StateBelow returns the state containing exactly the committed updates
// with timestamps strictly below ts, or init if there are none.
func (l *VersionLog) StateBelow(ts histories.Timestamp, init spec.State) spec.State {
	kept := l.kept()
	if n := len(kept); n > 0 && kept[n-1].TS < ts {
		return kept[n-1].State
	}
	i := sort.Search(len(kept), func(i int) bool { return kept[i].TS >= ts })
	if i == 0 {
		return init
	}
	return kept[i-1].State
}

// Head returns the newest version's state, or init if the log is empty.
func (l *VersionLog) Head(init spec.State) spec.State {
	if kept := l.kept(); len(kept) > 0 {
		return kept[len(kept)-1].State
	}
	return init
}

// HeadTS returns the newest version's timestamp, or TSNone if the log is
// empty.
func (l *VersionLog) HeadTS() histories.Timestamp {
	if kept := l.kept(); len(kept) > 0 {
		return kept[len(kept)-1].TS
	}
	return histories.TSNone
}

// Floor returns the oldest kept version's timestamp, or TSNone if the log
// is empty. A log that starts from a baseline version, or has been trimmed,
// cannot answer below it.
func (l *VersionLog) Floor() histories.Timestamp {
	if kept := l.kept(); len(kept) > 0 {
		return kept[0].TS
	}
	return histories.TSNone
}

// At returns the newest version at or below ts, or false when ts is below
// the floor: the state there is no longer (or never was) in the log.
func (l *VersionLog) At(ts histories.Timestamp) (spec.State, bool) {
	if kept := l.kept(); len(kept) == 0 || ts < kept[0].TS {
		return nil, false
	}
	return l.StateBelow(ts+1, nil), true
}

// Trim keeps a log that has grown past max versions to its newest half,
// which raises the floor to the oldest version kept.
func (l *VersionLog) Trim(max int) {
	if n := l.Len(); n > max {
		l.drop(n / 2)
	}
}

// Len returns the number of kept versions.
func (l *VersionLog) Len() int { return len(l.buf) - l.head }
