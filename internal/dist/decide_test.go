package dist

import (
	"fmt"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// decideSite is one site with acct0 holding a committed balance of 5.
func decideSite(t *testing.T, id SiteID, withObject bool) *Site {
	t.Helper()
	n := NewNetwork(0, 0, 1)
	if _, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: n}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSite(SiteConfig{ID: id, Network: n, Coordinators: []SiteID{"C"}, Sink: (&recorder{}).sink()})
	if err != nil {
		t.Fatal(err)
	}
	if !withObject {
		return s
	}
	if err := s.AddObject("acct0", adts.Account(), escrowGuard); err != nil {
		t.Fatal(err)
	}
	seed := &cc.TxnInfo{ID: "seed", Seq: 1, Participants: []string{string(id)}}
	clientVote(t, s, seed, 5)
	if err := s.handleCommit(fresh(s), "acct0", seed); err != nil {
		t.Fatal(err)
	}
	return s
}

// fresh is a delivery for a test that calls a handler directly: a request
// id never sent before, and no epoch expectation.
func fresh(s *Site) delivery { return delivery{id: s.net.reqSeq.Add(1)} }

// clientVote invokes deposit(n) on acct0 for txn and votes yes.
func clientVote(t *testing.T, s *Site, txn *cc.TxnInfo, n int64) {
	t.Helper()
	if _, err := s.handleInvoke(fresh(s), "acct0", txn, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(n)}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.handlePrepare(fresh(s), "acct0", txn, 1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestDecideSameThroughHandlerAndResolver: whoever learns a transaction's
// outcome — the commit/abort message handler or the in-doubt resolver — and
// whatever kind of half the site prepared, the site must log the same
// records, end in the same hosting and committed state, cache the same
// outcome and leave nothing behind: no transaction record (votes, staged
// copies, replies) and no freeze.
func TestDecideSameThroughHandlerAndResolver(t *testing.T) {
	txn := &cc.TxnInfo{ID: "t9", Seq: 9, Participants: []string{"A", "B"}}
	migrateHandler := func(s *Site, commit bool) error {
		if commit {
			return s.handleMigrateCommit(fresh(s), "acct0", txn)
		}
		return s.handleMigrateAbort(fresh(s), "acct0", txn)
	}
	halves := []struct {
		name    string
		prepare func(t *testing.T) *Site
		handler func(s *Site, commit bool) error
	}{
		{"client", func(t *testing.T) *Site {
			s := decideSite(t, "A", true)
			clientVote(t, s, txn, 3)
			return s
		}, func(s *Site, commit bool) error {
			if commit {
				return s.handleCommit(fresh(s), "acct0", txn)
			}
			return s.handleAbort(fresh(s), "acct0", txn)
		}},
		{"migrate-out", func(t *testing.T) *Site {
			s := decideSite(t, "A", true)
			if _, err := s.handleMigrateExport(fresh(s), "acct0", txn); err != nil {
				t.Fatal(err)
			}
			if err := s.handleMigratePrepare(fresh(s), "acct0", txn, recovery.MigrateOut, 7); err != nil {
				t.Fatal(err)
			}
			return s
		}, migrateHandler},
		{"migrate-in", func(t *testing.T) *Site {
			src := decideSite(t, "A", true)
			exp, err := src.handleMigrateExport(fresh(src), "acct0", txn)
			if err != nil {
				t.Fatal(err)
			}
			s := decideSite(t, "B", false)
			if err := s.handleMigrateImport(fresh(s), "acct0", txn, exp); err != nil {
				t.Fatal(err)
			}
			if err := s.handleMigratePrepare(fresh(s), "acct0", txn, recovery.MigrateIn, 7); err != nil {
				t.Fatal(err)
			}
			return s
		}, migrateHandler},
	}
	// observe renders everything the two paths must agree on.
	observe := func(s *Site, logged int) string {
		var kinds []string
		for _, r := range s.Disk().Records()[logged:] {
			kinds = append(kinds, map[recovery.RecordKind]string{
				recovery.RecordIntentions: "intentions", recovery.RecordCommit: "commit", recovery.RecordAbort: "abort",
			}[r.Kind])
		}
		key, err := s.CommittedStateKey("acct0")
		if err != nil {
			key = "none"
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Sprintf("appended=%v hosted=%v homedAt=%d state=%s decided=%v records=%d migrating=%d",
			kinds, s.hosted["acct0"], s.homedAt["acct0"], key, s.decided.outcome(txn.ID),
			len(s.txns), len(s.migrating))
	}
	want := map[string]string{
		"client/commit":      "appended=[commit] hosted=true homedAt=0 state=8 decided=committed",
		"client/abort":       "appended=[abort] hosted=true homedAt=0 state=5 decided=aborted",
		"migrate-out/commit": "appended=[commit] hosted=false homedAt=0 state=none decided=committed",
		"migrate-out/abort":  "appended=[abort] hosted=true homedAt=0 state=5 decided=aborted",
		"migrate-in/commit":  "appended=[commit] hosted=true homedAt=7 state=5 decided=committed",
		"migrate-in/abort":   "appended=[abort] hosted=false homedAt=0 state=none decided=aborted",
	}
	for _, h := range halves {
		for _, commit := range []bool{true, false} {
			name := h.name + "/abort"
			if commit {
				name = h.name + "/commit"
			}
			t.Run(name, func(t *testing.T) {
				viaHandler, viaResolver := h.prepare(t), h.prepare(t)
				logged := viaHandler.Disk().Len()
				if n := viaResolver.Disk().Len(); n != logged {
					t.Fatalf("identically prepared sites logged %d and %d records", logged, n)
				}
				if err := h.handler(viaHandler, commit); err != nil {
					t.Fatalf("handler: %v", err)
				}
				if !viaResolver.applyOutcome(txn.ID, commit, "coordinator") {
					t.Fatal("resolver installed nothing")
				}
				got, other := observe(viaHandler, logged), observe(viaResolver, logged)
				if got != other {
					t.Errorf("paths disagree:\n handler:  %s\n resolver: %s", got, other)
				}
				if full := want[name] + " records=0 migrating=0"; got != full {
					t.Errorf("handler path left\n %s, want\n %s", got, full)
				}
			})
		}
	}
}

// TestSiteRedoOrderHole is the fence around a known hole, not a passing
// test: at a site, recovery redoes a committed transaction at the log
// position of its intentions (its prepare), while the live site installed it
// when its commit arrived. Two enqueues the cascade guard grants
// concurrently may prepare in one order and commit in the other; their
// results are order-independent, the queue they leave is not, so a crash
// rebuilds a queue no live transaction ever saw. The cure is a per-object
// commit point in Fold.Redo (redo at the outcome record's position), which
// changes recovery semantics for every log reader and belongs in its own
// change. Until then chaos keeps queues on the table guard, which grants
// concurrent enqueues only of equal values.
func TestSiteRedoOrderHole(t *testing.T) {
	t.Skip("known hole: site redo replays in prepare order, live installs in commit order; needs a per-object commit point in recovery.Fold.Redo")
	n := NewNetwork(0, 0, 1)
	if _, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: n}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSite(SiteConfig{ID: "A", Network: n, Coordinators: []SiteID{"C"}, Sink: (&recorder{}).sink()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("q", adts.Queue(), nil); err != nil { // nil: the cascade guard
		t.Fatal(err)
	}
	var txns []*cc.TxnInfo
	for i := int64(1); i <= 2; i++ {
		txn := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("t%d", i)), Seq: i, Participants: []string{"A"}}
		if _, err := s.handleInvoke(fresh(s), "q", txn, spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(i)}, 0, 0); err != nil {
			t.Fatal(err)
		}
		txns = append(txns, txn)
	}
	for _, txn := range txns { // prepare t1, t2 ...
		if err := s.handlePrepare(fresh(s), "q", txn, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, txn := range []*cc.TxnInfo{txns[1], txns[0]} { // ... commit t2, t1
		if err := s.handleCommit(fresh(s), "q", txn); err != nil {
			t.Fatal(err)
		}
	}
	live, err := s.CommittedStateKey("q")
	if err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if recovered, _ := s.CommittedStateKey("q"); recovered != live {
		t.Errorf("recovered queue %s, live %s", recovered, live)
	}
}
