package dist

import (
	"math"
	"math/rand"
	"testing"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
)

// decidedProbeIDs are the ids the decided-table tests drive: numbered
// transactions at the edges of a page and of the number range, spellings
// TxnID never produces that a string table must still keep apart from
// them, and the other id families a site decides (replica deliveries,
// migrations, test fixtures).
func decidedProbeIDs() []histories.ActivityID {
	var ids []histories.ActivityID
	for _, seq := range []int64{1, 2, 63, 64, 65, 4095, 4096, 4097, 8191, 8192, 1 << 40, math.MaxInt64 - 1, math.MaxInt64} {
		ids = append(ids, cc.TxnID(seq))
	}
	return append(ids,
		"t05", "t+5", "t-5", "t0", "t00", "t", "t9223372036854775808", "t18446744073709551616",
		"repl!t5!acct0", "repl!t4096!acct1", "repl!seed!acct0!3", "M3:acct0", "M4096:acct1",
		"x", "T", "T5", "mig")
}

// TestDecidedTableMatchesMap: the paged decided table answers every
// question exactly as a plain map from id to outcome does, over a seeded
// sequence of decisions, re-decisions (a refusal's abort later overridden,
// a commit re-logged) and lookups of decided and undecided ids. A nil
// table, a crashed node's, knows nothing.
func TestDecidedTableMatchesMap(t *testing.T) {
	ids := decidedProbeIDs()
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 64; i++ {
		ids = append(ids, cc.TxnID(1+rng.Int63n(3*decidedPageSeqs)))
	}
	d, ref := newDecidedTable(), map[histories.ActivityID]bool{}
	check := func(id histories.ActivityID) {
		t.Helper()
		want, wantOK := ref[id]
		if got, ok := d.get(id); got != want || ok != wantOK {
			t.Fatalf("get(%q) = %v, %v; the map says %v, %v", id, got, ok, want, wantOK)
		}
		wantOut := OutcomeUnknown
		if wantOK && want {
			wantOut = OutcomeCommitted
		} else if wantOK {
			wantOut = OutcomeAborted
		}
		if got := d.outcome(id); got != wantOut {
			t.Fatalf("outcome(%q) = %s, want %s", id, got, wantOut)
		}
	}
	for step := 0; step < 20000; step++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(3) == 0 {
			commit := rng.Intn(2) == 0
			d.set(id, commit)
			ref[id] = commit
		}
		check(id)
	}
	for _, id := range ids {
		check(id)
	}
	var crashed *decidedTable
	for _, id := range ids {
		if _, ok := crashed.get(id); ok || crashed.outcome(id) != OutcomeUnknown {
			t.Fatalf("a nil table knows %q", id)
		}
	}
}

// TestRecoveredDecidedTablesGiveTheFoldsFate: a site and a coordinator
// that recover from a log of outcome records — decisions, re-decisions and
// the probe ids' odd spellings — answer every id exactly as the fold of
// that log does, the way TestEveryAskerGivesTheFoldsFate checks single
// transactions.
func TestRecoveredDecidedTablesGiveTheFoldsFate(t *testing.T) {
	ids := decidedProbeIDs()
	rng := rand.New(rand.NewSource(7))
	var log []recovery.Record
	for i := 0; i < 400; i++ {
		log = append(log, recovery.OutcomeRecord(ids[rng.Intn(len(ids))], rng.Intn(2) == 0))
	}
	fold := recovery.FoldLog(log)
	c := newCluster(t, 0)
	c.siteA.Crash()
	c.coord.Crash()
	for _, r := range log {
		if err := c.siteA.Disk().Append(r); err != nil {
			t.Fatal(err)
		}
		if err := c.coord.Disk().Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := c.siteA.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, id := range append(ids, "t7", "never") {
		want := fold.Fate(id)
		if got := c.coord.queryOutcome(id); got != want {
			t.Errorf("coordinator answers %s for %q, the fold says %s", got, id, want)
		}
		if got := c.siteA.outcomeOf(id); got != want {
			t.Errorf("site answers %s for %q, the fold says %s", got, id, want)
		}
	}
}
