package sim

import (
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/core"
	"weihl83/internal/histories"
)

func bankChecker(accounts int) *core.Checker {
	ck := core.NewChecker()
	for i := 0; i < accounts; i++ {
		ck.Register(acctID(i), adts.AccountSpec{})
	}
	ck.Register("queue", adts.QueueSpec{})
	return ck
}

// TestBankWorkloadAcrossKinds runs a small transfer/audit mix under every
// system kind and checks (a) no errors or invariant violations, (b) the
// recorded history satisfies the kind's local atomicity property.
func TestBankWorkloadAcrossKinds(t *testing.T) {
	kinds := []Kind{KindRW2PL, KindCommut, KindCommutNameOnly, KindCommutUndo, KindEscrow, KindExact, KindMVCC, KindMVCCClassical, KindHybrid}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(Config{Kind: k, Record: true}, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			p := BankParams{
				Accounts:           2,
				InitialBalance:     100,
				TransferWorkers:    2,
				TransfersPerWorker: 3,
				AuditWorkers:       1,
				AuditsPerWorker:    3,
				Amount:             5,
				Seed:               7,
			}
			m, err := RunBank(sys, p)
			if err != nil {
				t.Fatalf("run: %v (%s)", err, m)
			}
			if m.ConservationViolations() != 0 {
				t.Errorf("conservation violated %d times", m.ConservationViolations())
			}
			if m.TransferCommits() != int64(p.TransferWorkers*p.TransfersPerWorker) {
				t.Errorf("transfer commits %d", m.TransferCommits())
			}
			if m.AuditCommits() != int64(p.AuditWorkers*p.AuditsPerWorker) {
				t.Errorf("audit commits %d", m.AuditCommits())
			}

			h := sys.Manager.History()
			ck := bankChecker(p.Accounts)
			switch k.Property().String() {
			case "dynamic":
				if err := ck.DynamicAtomic(h); err != nil {
					t.Errorf("history not dynamic atomic: %v", err)
				}
			case "static":
				if err := h.WellFormedStatic(); err != nil {
					t.Fatalf("not static well-formed: %v", err)
				}
				if err := ck.StaticAtomic(h); err != nil {
					t.Errorf("history not static atomic: %v", err)
				}
			case "hybrid":
				if err := h.WellFormedHybrid(); err != nil {
					t.Fatalf("not hybrid well-formed: %v", err)
				}
				if err := ck.HybridAtomic(h); err != nil {
					t.Errorf("history not hybrid atomic: %v", err)
				}
			}
		})
	}
}

// TestQueueWorkloadAcrossKinds: every kind moves all produced items to the
// consumers.
func TestQueueWorkloadAcrossKinds(t *testing.T) {
	kinds := []Kind{KindCommut, KindExact, KindMVCC, KindHybrid}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(Config{Kind: k, Record: true}, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err := RunQueue(sys, QueueParams{Producers: 2, Consumers: 2, ItemsPerProducer: 4, Seed: 3})
			if err != nil {
				t.Fatalf("run: %v (%s)", err, m)
			}
			// Committed consumer txns include empty dequeues; but committed
			// producer txns are exact.
			if m.TransferCommits() == 0 {
				t.Error("no producer commits")
			}
		})
	}
}

// TestTimeoutMode exercises ablation A2 end to end: no detector, timeouts
// resolve conflicts.
func TestTimeoutMode(t *testing.T) {
	sys, err := NewSystem(Config{Kind: KindCommut, Record: true, WaitTimeout: 5e6 /* 5ms */}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunBank(sys, BankParams{
		Accounts:           2,
		InitialBalance:     100,
		TransferWorkers:    2,
		TransfersPerWorker: 3,
		Amount:             1,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("run: %v (%s)", err, m)
	}
	ck := bankChecker(2)
	if err := ck.DynamicAtomic(sys.Manager.History()); err != nil {
		t.Errorf("timeout-mode history not dynamic atomic: %v", err)
	}
}

// TestSkewedStaticCausesConflicts: E6's mechanism — under heavy skew the
// static protocol must abort stale writers; the run still completes via
// retries, and the history stays static atomic.
func TestSkewedStaticCausesConflicts(t *testing.T) {
	sys, err := NewSystem(Config{Kind: KindMVCC, Record: true, Skew: 8, Seed: 11}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunBank(sys, BankParams{
		Accounts:           1,
		InitialBalance:     1000,
		TransferWorkers:    4,
		TransfersPerWorker: 4,
		AuditWorkers:       2,
		AuditsPerWorker:    4,
		Amount:             0, // filled to 1
		Seed:               5,
	})
	_ = m
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h := sys.Manager.History()
	if err := h.WellFormedStatic(); err != nil {
		t.Fatalf("not static well-formed: %v", err)
	}
	ck := bankChecker(1)
	if err := ck.StaticAtomic(h); err != nil {
		t.Errorf("history not static atomic: %v", err)
	}
}

// TestHybridIgnoresSkew: Skew applies to static kinds only. Hybrid
// atomicity needs a strictly increasing clock, so a hybrid system given a
// skew still runs the bank workload clean and stays hybrid atomic.
func TestHybridIgnoresSkew(t *testing.T) {
	sys, err := NewSystem(Config{Kind: KindHybrid, Record: true, Skew: 8, Seed: 3}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	p := BankParams{
		Accounts:           2,
		InitialBalance:     1000,
		TransferWorkers:    4,
		TransfersPerWorker: 25,
		AuditWorkers:       2,
		AuditsPerWorker:    10,
		Seed:               3,
	}
	m, err := RunBank(sys, p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sys.Err(); err != nil {
		t.Fatalf("object invariant: %v", err)
	}
	if n := m.ConservationViolations(); n != 0 {
		t.Errorf("conservation violated %d times", n)
	}
	h := sys.Manager.History()
	if err := h.WellFormedHybrid(); err != nil {
		t.Fatalf("not hybrid well-formed: %v", err)
	}
	if err := bankChecker(p.Accounts).HybridAtomic(h); err != nil {
		t.Errorf("history not hybrid atomic: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindRW2PL, KindCommut, KindCommutNameOnly, KindCommutUndo, KindEscrow, KindExact, KindMVCC, KindMVCCClassical, KindHybrid} {
		if k.String() == "invalid" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "invalid" {
		t.Error("zero kind must be invalid")
	}
}

func TestNewSystemRejectsUnknownKind(t *testing.T) {
	if _, err := NewSystem(Config{Kind: Kind(99)}, 1, false); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMetricsDerived(t *testing.T) {
	var m Metrics
	m.addTransfer(2e6, 1, false)
	m.addTransfer(4e6, 0, false)
	m.addAudit(6e6, 2, false, false)
	m.Wall = 1e9
	if m.TransferThroughput() != 2 {
		t.Errorf("throughput %f", m.TransferThroughput())
	}
	if m.MeanTransferLatency() != 3e6 {
		t.Errorf("mean transfer latency %v", m.MeanTransferLatency())
	}
	if m.MeanAuditLatency() != 6e6 {
		t.Errorf("mean audit latency %v", m.MeanAuditLatency())
	}
	if m.TransferAbortRate() != 0.5 {
		t.Errorf("abort rate %f", m.TransferAbortRate())
	}
	if m.AuditAbortRate() != 2 {
		t.Errorf("audit abort rate %f", m.AuditAbortRate())
	}
	if m.String() == "" {
		t.Error("empty string rendering")
	}
	var empty Metrics
	if empty.TransferThroughput() != 0 || empty.MeanTransferLatency() != 0 || empty.MeanAuditLatency() != 0 || empty.TransferAbortRate() != 0 || empty.AuditAbortRate() != 0 {
		t.Error("zero metrics not zero")
	}
}

// TestHistoriesStayBounded sanity-checks that recording can be disabled.
func TestHistoriesStayBounded(t *testing.T) {
	sys, err := NewSystem(Config{Kind: KindCommut}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBank(sys, BankParams{Accounts: 1, TransferWorkers: 1, TransfersPerWorker: 2}); err != nil {
		t.Fatal(err)
	}
	if h := sys.Manager.History(); len(h) != 0 {
		t.Errorf("recording disabled but %d events recorded", len(h))
	}
	var hh histories.History = sys.Manager.History()
	_ = hh
}

// TestSemiQueueWorkload runs the producer/consumer mix over the
// nondeterministic semiqueue (experiment A4's workload).
func TestSemiQueueWorkload(t *testing.T) {
	for _, k := range []Kind{KindCommut, KindExact} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(Config{Kind: k, Record: true, SemiQueue: true}, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err := RunQueue(sys, QueueParams{Producers: 2, Consumers: 2, ItemsPerProducer: 4, Seed: 9})
			if err != nil {
				t.Fatalf("run: %v (%s)", err, m)
			}
			ck := core.NewChecker()
			ck.Register("queue", adts.SemiQueueSpec{})
			if err := ck.DynamicAtomic(sys.Manager.History()); err != nil {
				t.Errorf("semiqueue history not dynamic atomic: %v", err)
			}
		})
	}
}

// TestClassicalMVCCBankWorkload drives the semantics-free static baseline
// end to end; its history must still be static atomic (it is merely more
// conservative).
func TestClassicalMVCCBankWorkload(t *testing.T) {
	sys, err := NewSystem(Config{Kind: KindMVCCClassical, Record: true}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunBank(sys, BankParams{
		Accounts:           2,
		InitialBalance:     100,
		TransferWorkers:    2,
		TransfersPerWorker: 4,
		Amount:             1,
		Seed:               3,
		BalanceCheck:       true,
	})
	if err != nil {
		t.Fatalf("run: %v (%s)", err, m)
	}
	h := sys.Manager.History()
	if err := h.WellFormedStatic(); err != nil {
		t.Fatalf("not static well-formed: %v", err)
	}
	if err := bankChecker(2).StaticAtomic(h); err != nil {
		t.Errorf("not static atomic: %v", err)
	}
}
