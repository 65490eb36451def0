package hybridcc_test

import (
	"fmt"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/sim"
)

// TestConcurrentAuditsConserve is the stress oracle for the floor rule:
// transfer workers and two auditors run concurrently over a few hybrid
// accounts, seed after seed, half the seeds through a write-ahead log
// (whose group commit keeps updates prepared longer). Every audit must see
// the conserved total and every recorded history must be hybrid atomic.
func TestConcurrentAuditsConserve(t *testing.T) {
	const seeds = 40
	skipped := obs.Default.Counter("hybrid.waits_skipped")
	before := skipped.Load()
	for seed := int64(1); seed <= seeds; seed++ {
		accounts := 2 + int(seed%3)
		p := sim.BankParams{
			Accounts:           accounts,
			InitialBalance:     100,
			TransferWorkers:    2 + int(seed/3%3),
			TransfersPerWorker: 12,
			AuditWorkers:       2,
			AuditsPerWorker:    12,
			Amount:             3,
			Seed:               seed,
		}
		cfg := sim.Config{Kind: sim.KindHybrid, Record: true, Seed: seed}
		if seed%2 == 0 {
			cfg.WAL = &recovery.Disk{}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sys, err := sim.NewSystem(cfg, accounts, false)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.RunBank(sys, p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n := m.ConservationViolations(); n != 0 {
				t.Errorf("%d audits missed the conserved total", n)
			}
			if got, want := m.AuditCommits(), int64(p.AuditWorkers*p.AuditsPerWorker); got != want {
				t.Errorf("audit commits %d, want %d", got, want)
			}
			if got, want := m.TransferCommits(), int64(p.TransferWorkers*p.TransfersPerWorker); got != want {
				t.Errorf("transfer commits %d, want %d", got, want)
			}
			if err := sys.Err(); err != nil {
				t.Errorf("object invariant: %v", err)
			}
			h := sys.Manager.History()
			if err := h.WellFormedHybrid(); err != nil {
				t.Fatalf("history not hybrid well-formed: %v", err)
			}
			ck := core.NewChecker()
			for i := 0; i < accounts; i++ {
				ck.Register(histories.ObjectID(fmt.Sprintf("acct%d", i)), adts.AccountSpec{})
			}
			if err := ck.HybridAtomic(h); err != nil {
				t.Errorf("history not hybrid atomic: %v", err)
			}
		})
	}
	t.Logf("queries that passed over prepared updates: %d", skipped.Load()-before)
}
