package ccrt

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
)

// TestVersionLogReclaim: Reclaim keeps the newest version below the floor
// and every later one, so reads at or above the floor are unchanged, and
// clears the slots it drops. A log reclaimed as it grows reuses one small
// array, and one that grew while the floor was held down shrinks again.
func TestVersionLogReclaim(t *testing.T) {
	var l VersionLog
	for ts := histories.Timestamp(10); ts <= 100; ts += 10 {
		if err := l.Append(ts, adts.AccountState(ts)); err != nil {
			t.Fatal(err)
		}
	}
	l.Reclaim(55)
	if l.Len() != 6 || l.Floor() != 50 || l.HeadTS() != 100 {
		t.Fatalf("after Reclaim(55): len %d floor %d head %d, want 6, 50, 100", l.Len(), l.Floor(), l.HeadTS())
	}
	for ts, want := range map[histories.Timestamp]adts.AccountState{55: 50, 51: 50, 60: 50, 61: 60, 101: 100} {
		if got := l.StateBelow(ts, nil); got != want {
			t.Errorf("StateBelow(%d) = %v, want %v", ts, got, want)
		}
	}
	for i, v := range l.buf[:l.head] {
		if v != (Version{}) {
			t.Errorf("dropped slot %d still holds %v", i, v)
		}
	}
	l.Reclaim(50) // only one version below 50: nothing to drop
	l.Reclaim(60)
	if l.Len() != 6 || l.Floor() != 50 {
		t.Fatalf("Reclaim at or just above the floor dropped versions: len %d floor %d", l.Len(), l.Floor())
	}
	l.Reclaim(1000)
	if l.Len() != 1 || l.Floor() != 100 || l.StateBelow(1000, nil) != adts.AccountState(100) {
		t.Fatalf("after Reclaim(1000): len %d floor %d, want only the head", l.Len(), l.Floor())
	}

	var grow VersionLog
	for ts := histories.Timestamp(1); ts <= 10000; ts++ {
		if err := grow.Append(ts, adts.AccountState(ts)); err != nil {
			t.Fatal(err)
		}
		grow.Reclaim(ts - 2) // keeps ts-3 (the newest below) to ts
	}
	if grow.Len() != 4 || cap(grow.buf) > 8 {
		t.Errorf("a log reclaimed as it grows holds %d versions in an array of %d, want 4 in at most 8", grow.Len(), cap(grow.buf))
	}
	if got := grow.StateBelow(9999, nil); got != adts.AccountState(9998) {
		t.Errorf("StateBelow(9999) = %v, want 9998", got)
	}

	// A floor held down while 1000 versions arrive grows the array; once
	// the floor moves on, the kept versions move to a small one.
	var held VersionLog
	for ts := histories.Timestamp(1); ts <= 1000; ts++ {
		if err := held.Append(ts, adts.AccountState(ts)); err != nil {
			t.Fatal(err)
		}
		held.Reclaim(1)
	}
	if held.Len() != 1000 {
		t.Fatalf("a floor below every version kept %d of 1000", held.Len())
	}
	held.Reclaim(999)
	if held.Len() != 3 || cap(held.buf) > 6 || held.StateBelow(1000, nil) != adts.AccountState(999) {
		t.Errorf("after the floor moved on: %d versions in an array of %d, want 3 in at most 6", held.Len(), cap(held.buf))
	}
}
