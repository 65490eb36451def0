package chaos

import (
	"reflect"
	"testing"

	"weihl83/internal/histories"
	"weihl83/internal/tx"
)

// TestFailedCheckKeepsHistory: the shared checker oracle turns a
// non-atomic history into a failed verdict and keeps exactly that history
// on the report for the failure dump; a passing history is not kept.
func TestFailedCheckKeepsHistory(t *testing.T) {
	// b withdraws 10 from an account holding only a's 5 and is told ok:
	// no serial order of a and b produces that result.
	bad := histories.MustParse(`
		<deposit(5),acct0,a>
		<ok,acct0,a>
		<commit,acct0,a>
		<withdraw(10),acct0,b>
		<ok,acct0,b>
		<commit,acct0,b>
	`)
	rep := &Report{Property: tx.Dynamic}
	if err := rep.check(bad); err == nil {
		t.Fatal("non-atomic history passed the checker")
	}
	if rep.CheckErr == "" {
		t.Error("CheckErr empty after a failed check")
	}
	if rep.Events != len(bad) || !reflect.DeepEqual(rep.History, bad) {
		t.Errorf("report carries %d events %v, want the checked history %v", rep.Events, rep.History, bad)
	}

	good := bad[:3]
	if err := rep.check(good); err != nil {
		t.Fatalf("atomic history refused: %v", err)
	}
	if rep.CheckErr != "" || rep.History != nil || rep.Events != len(good) {
		t.Errorf("passing check left CheckErr=%q History=%v Events=%d", rep.CheckErr, rep.History, rep.Events)
	}
}
