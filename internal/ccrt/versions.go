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
type VersionLog struct {
	versions []Version
}

// Append adds a version, enforcing that timestamps arrive strictly
// ascending — the invariant the commit sequencer (or, before it, the global
// commit mutex) exists to provide. A violation is a protocol bug, reported
// for the object to record as corruption.
func (l *VersionLog) Append(ts histories.Timestamp, st spec.State) error {
	if n := len(l.versions); n > 0 && ts <= l.versions[n-1].TS {
		return fmt.Errorf("version timestamp %d not above log head %d", ts, l.versions[n-1].TS)
	}
	l.versions = append(l.versions, Version{TS: ts, State: st})
	return nil
}

// StateBelow returns the state containing exactly the committed updates
// with timestamps strictly below ts, or init if there are none.
func (l *VersionLog) StateBelow(ts histories.Timestamp, init spec.State) spec.State {
	i := sort.Search(len(l.versions), func(i int) bool { return l.versions[i].TS >= ts })
	if i == 0 {
		return init
	}
	return l.versions[i-1].State
}

// Head returns the newest version's state, or init if the log is empty.
func (l *VersionLog) Head(init spec.State) spec.State {
	if n := len(l.versions); n > 0 {
		return l.versions[n-1].State
	}
	return init
}

// HeadTS returns the newest version's timestamp, or TSNone if the log is
// empty.
func (l *VersionLog) HeadTS() histories.Timestamp {
	if n := len(l.versions); n > 0 {
		return l.versions[n-1].TS
	}
	return histories.TSNone
}

// Floor returns the oldest kept version's timestamp, or TSNone if the log
// is empty. A log that starts from a baseline version, or has been trimmed,
// cannot answer below it.
func (l *VersionLog) Floor() histories.Timestamp {
	if len(l.versions) == 0 {
		return histories.TSNone
	}
	return l.versions[0].TS
}

// At returns the newest version at or below ts, or false when ts is below
// the floor: the state there is no longer (or never was) in the log.
func (l *VersionLog) At(ts histories.Timestamp) (spec.State, bool) {
	if len(l.versions) == 0 || ts < l.versions[0].TS {
		return nil, false
	}
	return l.StateBelow(ts+1, nil), true
}

// Trim keeps a log that has grown past max versions to its newest half,
// which raises the floor to the oldest version kept. The kept versions are
// copied so the dropped states can be collected.
func (l *VersionLog) Trim(max int) {
	if len(l.versions) > max {
		l.versions = append([]Version(nil), l.versions[len(l.versions)/2:]...)
	}
}

// Len returns the number of versions.
func (l *VersionLog) Len() int { return len(l.versions) }
