package dist

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// TestEveryAskerGivesTheFoldsFate pins the one fate rule on the inputs the
// former hand-rolled copies treated differently, and requires every reader
// of a log — restart's redo, the decided table a site's recovery rebuilds
// and the outcome query it then answers from it, and a coordinator's
// recovery — to resolve to the fold's single answer. A down site reads no
// log: it answers in-doubt until it recovers.
func TestEveryAskerGivesTheFoldsFate(t *testing.T) {
	const x = histories.ActivityID("x")
	deposit := recovery.Record{
		Kind:   recovery.RecordIntentions,
		Txn:    x,
		Object: "acct0",
		Calls:  []spec.Call{{Inv: spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(7)}, Result: value.Unit()}},
	}
	seven, err := spec.Apply(adts.AccountSpec{}.Init(), deposit.Calls[0].Inv)
	if err != nil {
		t.Fatal(err)
	}
	commit, abort := recovery.OutcomeRecord(x, true), recovery.OutcomeRecord(x, false)
	tornCommit := commit
	tornCommit.Torn = true
	cases := []struct {
		name    string
		log     []recovery.Record
		want    Outcome
		balance string // acct0 after redo
	}{
		{"commit then abort", []recovery.Record{deposit, commit, abort}, OutcomeCommitted, "7"},
		{"abort then commit", []recovery.Record{deposit, abort, commit}, OutcomeCommitted, "7"},
		{"checkpoint Decided then late abort", []recovery.Record{
			{Kind: recovery.RecordCheckpoint,
				States:  map[histories.ObjectID]spec.State{"acct0": seven.Next},
				Decided: map[histories.ActivityID]bool{x: true}},
			abort,
		}, OutcomeCommitted, "7"},
		{"abort alone", []recovery.Record{deposit, abort}, OutcomeAborted, "0"},
		{"torn commit record", []recovery.Record{deposit, tornCommit}, OutcomeInDoubt, "0"},
		{"torn commit record after abort", []recovery.Record{deposit, abort, tornCommit}, OutcomeAborted, "0"},
		{"uncommitted replica delivery", []recovery.Record{
			{Kind: recovery.RecordIntentions, Txn: x, Object: "acct0", Migrate: recovery.ReplicaIn, TS: 3, Calls: deposit.Calls},
		}, OutcomeUnknown, "0"},
		{"migrate half", []recovery.Record{
			{Kind: recovery.RecordIntentions, Txn: x, Object: "acct0", Migrate: recovery.MigrateOut, RingV: 2, Participants: []string{"A", "B"}},
		}, OutcomeInDoubt, "0"},
		{"no trace", nil, OutcomeUnknown, "0"},
	}
	specs := map[histories.ObjectID]spec.SerialSpec{"acct0": adts.AccountSpec{}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fold := recovery.FoldLog(tc.log)
			if got := fold.Fate(x); got != tc.want {
				t.Fatalf("fold fate = %s, want %s", got, tc.want)
			}
			fill := func(b recovery.Backend, recs []recovery.Record) {
				for _, r := range recs {
					if err := b.Append(r); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Restart redoes the intentions iff the fold says committed.
			disk := &recovery.Disk{}
			fill(disk, tc.log)
			states, err := recovery.Restart(disk, specs)
			if err != nil {
				t.Fatal(err)
			}
			if got := states["acct0"].Key(); got != tc.balance {
				t.Errorf("restart balance = %s, want %s", got, tc.balance)
			}

			// A crashed site has no tables and does not read its log: it
			// answers in-doubt, like an unreachable node, and logs nothing.
			c := newCluster(t, 0)
			c.siteA.Crash()
			fill(c.siteA.Disk(), tc.log)
			if got := c.siteA.queryOutcome(x); got != OutcomeInDoubt {
				t.Errorf("down site queryOutcome = %s, want %s", got, OutcomeInDoubt)
			}
			if got := c.siteA.Disk().Len(); got != len(tc.log) {
				t.Errorf("down site's log holds %d records after a query, want %d", got, len(tc.log))
			}
			// Recovery resolves what is in doubt (the coordinator knows
			// nothing: presumed abort) and rebuilds the decided cache; every
			// other fate must come back exactly as the fold told it.
			if err := c.siteA.Recover(); err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == OutcomeInDoubt {
				want = OutcomeAborted
			}
			c.siteA.mu.Lock()
			got := cachedOutcome(c.siteA.decided, x)
			c.siteA.mu.Unlock()
			if got != want {
				t.Errorf("site decided cache after Recover = %s, want %s", got, want)
			}
			if got := c.siteA.outcomeOf(x); got != want {
				t.Errorf("site outcomeOf after Recover = %s, want %s", got, want)
			}
			if want == OutcomeCommitted {
				if key, err := c.siteA.CommittedStateKey("acct0"); err != nil || key != tc.balance {
					t.Errorf("site balance after Recover = %s (%v), want %s", key, err, tc.balance)
				}
			}

			// A coordinator's log carries outcome records only; its recovered
			// answer is the fold's over the same records (in doubt is not a
			// state a coordinator log can express — it has no intentions).
			var outcomes []recovery.Record
			for _, r := range tc.log {
				if r.Kind != recovery.RecordIntentions {
					outcomes = append(outcomes, r)
				}
			}
			c.coord.Crash()
			fill(c.coord.Disk(), outcomes)
			if err := c.coord.Recover(); err != nil {
				t.Fatal(err)
			}
			if got, want := c.coord.queryOutcome(x), recovery.FoldLog(outcomes).Fate(x); got != want {
				t.Errorf("coordinator after Recover = %s, want %s", got, want)
			}
		})
	}
}
