package dist

import (
	"errors"
	"fmt"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// siteRecords counts a site's transaction records and the invoke replies
// they cache.
func siteRecords(s *Site) (records, replies int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.txns {
		replies += len(t.replies)
	}
	return len(s.txns), replies
}

// TestDecidedTransactionsLeaveNoSiteRecord: a site keeps a record only for
// a live transaction, and the record — its votes and cached replies with
// it — goes with the decision. Committed and aborted two-site transfers
// leave nothing at either site; a transaction abandoned by its client and
// one refused to a peer leave their record (it holds their locks) until
// the sweeper releases it. Every site ends with no record and no cached
// reply, and the balances are exact.
func TestDecidedTransactionsLeaveNoSiteRecord(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B"}, homes: []SiteID{"A", "B"}})
	e.deposit(t, "acct0", 100)
	transfer := func(fail error) error {
		return e.manager.Run(func(txn *tx.Txn) error {
			if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(1)); err != nil {
				return err
			}
			if _, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1)); err != nil {
				return err
			}
			return fail
		})
	}
	wantNone := func(stage string) {
		t.Helper()
		for id, s := range e.sites {
			if records, replies := siteRecords(s); records != 0 || replies != 0 {
				t.Fatalf("%s: site %s keeps %d records and %d cached replies, want none", stage, id, records, replies)
			}
		}
	}
	errAbort := errors.New("client gives up")
	for i := 0; i < 8; i++ {
		if err := transfer(nil); err != nil {
			t.Fatal(err)
		}
		if err := transfer(errAbort); !errors.Is(err, errAbort) {
			t.Fatalf("aborted transfer = %v, want %v", err, errAbort)
		}
	}
	wantNone("after committed and aborted transfers")

	// Abandoned by its client: the record holds its withdraw until swept.
	dead := e.manager.Begin()
	if _, err := dead.Invoke("acct0", adts.OpWithdraw, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	// Refused to a peer while it holds a deposit at B: the refusal keeps
	// the record for the sweeper.
	refused := e.manager.Begin()
	if _, err := refused.Invoke("acct1", adts.OpDeposit, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	if out, err := e.net.QueryOutcome("A", "B", refused.ID()); err != nil || out != OutcomeUnknown {
		t.Fatalf("peer query = %s, %v; want %s", out, err, OutcomeUnknown)
	}
	if records, _ := siteRecords(e.sites["B"]); records != 1 {
		t.Fatalf("B keeps %d records after the refusal, want 1 (the refused transaction's locks)", records)
	}
	e.sweep()
	wantNone("after the sweep")
	if _, err := refused.Invoke("acct1", adts.OpDeposit, value.Int(1)); !errors.Is(err, ErrRefused) {
		t.Fatalf("invoke by the refused transaction = %v, want ErrRefused", err)
	}
	dead.Abort()
	refused.Abort()
	wantNone("after the late aborts")
	if b0, b1 := e.balance(t, "acct0"), e.balance(t, "acct1"); b0 != 92 || b1 != 8 {
		t.Fatalf("balances %d/%d, want 92/8", b0, b1)
	}
	wantNone("after the balance reads")
}

// TestRetransmitAfterDecision: every stateful message kind, re-delivered
// with its original request id after its transaction was committed,
// aborted, swept by the abandoned-transaction sweeper, or refused to a peer
// (and then swept), must leave nothing behind — no lock, freeze, staged
// copy, prepared half or record, and no log record at all. The kinds that
// act before the decision are refused; the decisions do nothing.
func TestRetransmitAfterDecision(t *testing.T) {
	client := &cc.TxnInfo{ID: "T", Seq: 100, Participants: []string{"A"}}
	mig := &cc.TxnInfo{ID: "M", Seq: 101, Participants: []string{"A", "B"}}
	var exp migExport
	deposit := spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(3)}
	// The two lives before a decision, in message order, and their
	// decisions.
	clientLife := []lifeStep{
		{"invoke", "A", func(s *Site, d delivery) error {
			_, err := s.handleInvoke(d, "acct0", client, deposit, 0, 0)
			return err
		}},
		{"prepare", "A", func(s *Site, d delivery) error { return s.handlePrepare(d, "acct0", client, 1, 0) }},
	}
	clientCommit := []lifeStep{{"commit", "A", func(s *Site, d delivery) error { return s.handleCommit(d, "acct0", client) }}}
	clientAbort := []lifeStep{{"abort", "A", func(s *Site, d delivery) error { return s.handleAbort(d, "acct0", client) }}}
	migLife := []lifeStep{
		{"export", "A", func(s *Site, d delivery) (err error) {
			exp, err = s.handleMigrateExport(d, "acct0", mig)
			return err
		}},
		{"import", "B", func(s *Site, d delivery) error { return s.handleMigrateImport(d, "acct0", mig, exp) }},
		{"migrate-prepare-out", "A", func(s *Site, d delivery) error {
			return s.handleMigratePrepare(d, "acct0", mig, recovery.MigrateOut, 7)
		}},
		{"migrate-prepare-in", "B", func(s *Site, d delivery) error {
			return s.handleMigratePrepare(d, "acct0", mig, recovery.MigrateIn, 7)
		}},
	}
	migCommit := []lifeStep{
		{"migrate-commit-out", "A", func(s *Site, d delivery) error { return s.handleMigrateCommit(d, "acct0", mig) }},
		{"migrate-commit-in", "B", func(s *Site, d delivery) error { return s.handleMigrateCommit(d, "acct0", mig) }},
	}
	migAbort := []lifeStep{
		{"migrate-abort-out", "A", func(s *Site, d delivery) error { return s.handleMigrateAbort(d, "acct0", mig) }},
		{"migrate-abort-in", "B", func(s *Site, d delivery) error { return s.handleMigrateAbort(d, "acct0", mig) }},
	}
	// sweep and refuse are the site's own decisions, taken at every site.
	sweep := lifeStep{kind: "sweep"}
	refuse := lifeStep{kind: "refuse"}

	type lifecycle struct {
		fate  string
		steps []lifeStep
	}
	// lives lists, for one kind, each way its transaction can end.
	lives := func(kind string) []lifecycle {
		// first counts the messages a transaction sends before any vote.
		life, commit, abort, first := clientLife, clientCommit, clientAbort, 1
		if !hasKind(clientLife, kind) && !hasKind(clientCommit, kind) && !hasKind(clientAbort, kind) {
			life, commit, abort, first = migLife, migCommit, migAbort, 2 // export and import
		}
		upTo := len(life)
		for i, st := range life {
			if st.kind == kind {
				upTo = i + 1
			}
		}
		cat := func(parts ...[]lifeStep) []lifeStep {
			var out []lifeStep
			for _, p := range parts {
				out = append(out, p...)
			}
			return out
		}
		var out []lifecycle
		if !hasKind(abort, kind) {
			out = append(out, lifecycle{"committed", cat(life, commit)})
		}
		if !hasKind(commit, kind) {
			out = append(out, lifecycle{"aborted", cat(life[:upTo], abort)})
		}
		// Before a yes-vote the site may decide on its own: the kinds sent
		// before any vote, and a late abort, meet the sweeper and a refusal.
		if upTo <= first || hasKind(abort, kind) {
			out = append(out,
				lifecycle{"swept", cat(life[:first], []lifeStep{sweep}, abort)},
				lifecycle{"refused", cat(life[:first], []lifeStep{refuse, sweep}, abort)})
		}
		return out
	}
	kinds := []string{"invoke", "prepare", "commit", "abort",
		"export", "import", "migrate-prepare-out", "migrate-prepare-in",
		"migrate-commit-out", "migrate-commit-in", "migrate-abort-out", "migrate-abort-in"}
	for _, kind := range kinds {
		for _, lc := range lives(kind) {
			t.Run(kind+"/"+lc.fate, func(t *testing.T) {
				sites := map[SiteID]*Site{"A": decideSite(t, "A", true), "B": decideSite(t, "B", false)}
				sent := map[string]delivery{}
				for _, st := range lc.steps {
					switch st.kind {
					case "sweep":
						for _, s := range sites {
							s.AbortAbandoned(0)
						}
						continue
					case "refuse":
						for _, s := range sites {
							for _, txn := range []histories.ActivityID{client.ID, mig.ID} {
								if out := s.queryOutcome(txn); out != OutcomeUnknown && out != OutcomeAborted {
									t.Fatalf("refusal of %s at %s answered %s", txn, s.ID(), out)
								}
							}
						}
						continue
					}
					s := sites[st.at]
					d := delivery{id: s.net.reqSeq.Add(1), expect: s.Epoch()}
					sent[st.kind] = d
					if err := st.run(s, d); err != nil {
						t.Fatalf("%s: %v", st.kind, err)
					}
				}
				var redo lifeStep
				for _, st := range lc.steps {
					if st.kind == kind {
						redo = st
					}
				}
				s := sites[redo.at]
				observe := func() string {
					var b []string
					for _, id := range []SiteID{"A", "B"} {
						s := sites[id]
						key, err := s.CommittedStateKey("acct0")
						if err != nil {
							key = "none"
						}
						b = append(b, fmt.Sprintf("%s: log=%d state=%s", id, s.Disk().Len(), key))
					}
					return fmt.Sprint(b)
				}
				before := observe()
				err := redo.run(s, sent[kind])
				decision := hasKind(clientCommit, kind) || hasKind(clientAbort, kind) ||
					hasKind(migCommit, kind) || hasKind(migAbort, kind)
				if decision && err != nil {
					t.Errorf("re-delivered %s = %v, want nil (installed already)", kind, err)
				}
				if !decision && !errors.Is(err, ErrRefused) {
					t.Errorf("re-delivered %s = %v, want ErrRefused", kind, err)
				}
				if after := observe(); after != before {
					t.Errorf("re-delivery changed the sites:\n before %s\n after  %s", before, after)
				}
				for id, s := range sites {
					s.mu.Lock()
					records, frozen := len(s.txns), len(s.migrating)
					o := s.objects["acct0"]
					s.mu.Unlock()
					if records != 0 || frozen != 0 {
						t.Errorf("site %s keeps %d records and %d freezes", id, records, frozen)
					}
					if o == nil {
						continue
					}
					for _, txn := range []*cc.TxnInfo{client, mig} {
						if n := o.CallCount(txn); n != 0 {
							t.Errorf("site %s: %s still holds %d calls at acct0", id, txn.ID, n)
						}
					}
				}
			})
		}
	}
}

// lifeStep is one message of a transaction's life, delivered at one site.
type lifeStep struct {
	kind string
	at   SiteID
	run  func(s *Site, d delivery) error
}

// hasKind reports whether steps hold a step of kind.
func hasKind(steps []lifeStep, kind string) bool {
	for _, st := range steps {
		if st.kind == kind {
			return true
		}
	}
	return false
}

// TestWarmTwoSiteTransferAllocs pins what one warm two-site transfer
// allocates end to end through the elastic harness: two invokes, two
// prepares and two commits over the network, the pool's logged decision,
// and the site records the transfer creates and its decision deletes. The
// logs copy the records into chunks they own, the site records and the
// cluster pins are recycled, and the outcomes go into paged bitsets, so
// none of those allocates per transfer any more (19 before, 9 after).
func TestWarmTwoSiteTransferAllocs(t *testing.T) {
	e := newElasticWith(t, elasticConfig{sites: []SiteID{"A", "B"}, homes: []SiteID{"A", "B"}})
	e.deposit(t, "acct0", 1_000_000)
	transfer := func() {
		if err := e.manager.Run(func(txn *tx.Txn) error {
			if _, err := txn.Invoke("acct0", adts.OpWithdraw, value.Int(1)); err != nil {
				return err
			}
			_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		transfer() // warm: epochs pinned, tables grown
	}
	const ceiling = 10
	if got := testing.AllocsPerRun(500, transfer); got > ceiling {
		t.Errorf("warm two-site transfer allocates %.0f times, want <= %d", got, ceiling)
	}
}
