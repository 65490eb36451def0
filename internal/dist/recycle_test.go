package dist

import (
	"errors"
	"slices"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// TestRecycledSiteRecordStartsClean: a site resets the record of every
// decided transaction and hands it to a later one. A transaction is
// decided at the sites by each path in turn — commit, client abort, the
// abandoned sweep, and a peer refusal followed by the sweep — with votes,
// participants and several cached replies in its records where the path
// allows. The next transaction then takes each recycled record, and must
// find in it nothing but its own first invoke: no old object, half, reply,
// participant, staged copy or termination backoff. The balances are exact
// at the end.
func TestRecycledSiteRecordStartsClean(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B"}, homes: []SiteID{"A", "B"}})
	e.deposit(t, "acct0", 100)
	invoke := func(txn *tx.Txn, obj histories.ObjectID, op string, amount int64) {
		t.Helper()
		if _, err := txn.Invoke(obj, op, value.Int(amount)); err != nil {
			t.Fatal(err)
		}
	}
	errAbort := errors.New("client gives up")
	transfer := func(fail error) func() {
		return func() {
			err := e.manager.Run(func(txn *tx.Txn) error {
				invoke(txn, "acct0", adts.OpWithdraw, 1)
				invoke(txn, "acct1", adts.OpDeposit, 1)
				invoke(txn, "acct1", adts.OpDeposit, 1) // a second cached reply at B
				return fail
			})
			if !errors.Is(err, fail) {
				t.Fatalf("transfer = %v, want %v", err, fail)
			}
		}
	}
	paths := []struct {
		name string
		end  func()
	}{
		{"commit", transfer(nil)},
		{"abort", transfer(errAbort)},
		{"sweep", func() {
			dead := e.manager.Begin()
			invoke(dead, "acct0", adts.OpWithdraw, 5)
			invoke(dead, "acct1", adts.OpDeposit, 5)
			invoke(dead, "acct1", adts.OpDeposit, 5)
			e.sweep()
			dead.Abort()
		}},
		{"refusal then sweep", func() {
			refused := e.manager.Begin()
			invoke(refused, "acct1", adts.OpDeposit, 5)
			invoke(refused, "acct1", adts.OpDeposit, 5)
			if out, err := e.net.QueryOutcome("A", "B", refused.ID()); err != nil || out != OutcomeUnknown {
				t.Fatalf("peer query = %s, %v; want %s", out, err, OutcomeUnknown)
			}
			e.sweep()
			refused.Abort()
		}},
	}
	for _, path := range paths {
		// Empty the free lists, so what they hold after the path is the
		// path's own records.
		for _, s := range e.sites {
			s.mu.Lock()
			for s.freeTxns.n > 0 {
				s.freeTxns.take()
			}
			s.mu.Unlock()
		}
		path.end()
		recycled := map[SiteID]*siteTxn{}
		for id, s := range e.sites {
			s.mu.Lock()
			if s.freeTxns.n > 1 {
				t.Fatalf("%s: site %s recycled %d records of one transaction", path.name, id, s.freeTxns.n)
			}
			if s.freeTxns.n == 1 {
				recycled[id] = s.freeTxns.free[0]
			}
			s.mu.Unlock()
		}
		if recycled["B"] == nil {
			t.Fatalf("%s: B recycled no record", path.name)
		}

		probe := e.manager.Begin()
		invoke(probe, "acct0", adts.OpDeposit, 1)
		invoke(probe, "acct1", adts.OpDeposit, 1)
		for id, old := range recycled {
			s := e.sites[id]
			obj := histories.ObjectID("acct0")
			if id == "B" {
				obj = "acct1"
			}
			s.mu.Lock()
			rec := s.txns[probe.ID()]
			var bad []string
			if rec != old {
				bad = append(bad, "took a fresh record, not the recycled one")
			} else {
				if !slices.Equal(rec.objects, []histories.ObjectID{obj}) {
					bad = append(bad, "objects")
				}
				if len(rec.halves) != 0 || rec.participants != nil || !rec.preparedAt.IsZero() {
					bad = append(bad, "a vote")
				}
				if len(rec.replies) != 1 {
					bad = append(bad, "replies")
				}
				if rec.staged != nil {
					bad = append(bad, "a staged copy")
				}
				if rec.attempts != 0 || !rec.nextTry.IsZero() {
					bad = append(bad, "termination backoff")
				}
				if time.Since(rec.lastSeen) > time.Minute {
					bad = append(bad, "an idle clock")
				}
			}
			s.mu.Unlock()
			if bad != nil {
				t.Errorf("%s: the record %s recycled for the next transaction carries %v", path.name, id, bad)
			}
		}
		if err := probe.Commit(); err != nil {
			t.Fatalf("%s: probe commit: %v", path.name, err)
		}
	}
	// One committed transfer and four probes, each depositing 1 at both.
	if b0, b1 := e.balance(t, "acct0"), e.balance(t, "acct1"); b0 != 103 || b1 != 6 {
		t.Fatalf("balances %d/%d, want 103/6", b0, b1)
	}
	for id, s := range e.sites {
		if records, replies := siteRecords(s); records != 0 || replies != 0 {
			t.Fatalf("site %s keeps %d records and %d cached replies, want none", id, records, replies)
		}
	}
}

// TestRecycledPinNeverAliasesShippedCalls: a cluster pin is recycled at
// its transaction's commit, while the replicator may still hold the calls
// it mirrored for delivery. With both followers down, every delivery
// waits in its queue; the deposits commit one after another through the
// same proxies, each on a recycled pin, and once the followers recover
// every queued delivery must still carry its own amount: the followers
// converge to the leader.
func TestRecycledPinNeverAliasesShippedCalls(t *testing.T) {
	e := newReplicated(t, 3, nil)
	set := e.cluster.ReplicaSet("acct0")
	for _, f := range set[1:] {
		e.sites[f].Crash()
	}
	want := int64(0)
	for i := int64(1); i <= 12; i++ {
		e.deposit(t, "acct0", i)
		e.deposit(t, "acct1", 100*i)
		want += i
	}
	for _, f := range set[1:] {
		if err := e.sites[f].Recover(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.cluster.ReplicationIdle(5 * time.Second); err != nil {
		t.Fatalf("replication drain: %v", err)
	}
	if got := e.balance(t, "acct0"); got != want {
		t.Fatalf("leader balance = %d, want %d", got, want)
	}
	e.assertConverged(t, "acct0")
	e.assertConverged(t, "acct1")
}
