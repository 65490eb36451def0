// Command bankbench regenerates the paper's comparative experiments as
// tables (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	bankbench -exp e5        audit length sweep: locking vs mvcc vs hybrid
//	bankbench -exp e6        clock-skew sweep: static aborts vs dynamic waits
//	bankbench -exp e7        single-account contention: rw vs commut vs escrow
//	bankbench -exp e9        Lamport audit mix: locking vs hybrid
//	bankbench -exp all       all four
//
// Flags scale the workload (-transfers, -audits, -workers, -accounts).
// Performance is measured elsewhere: the ledger (bench/, BENCHMARK.json)
// end to end, and per-package testing.B ladders (`go test -bench`).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"weihl83/internal/sim"
)

type scale struct {
	workers   int
	transfers int
	audits    int
	accounts  int
}

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment: e5|e6|e7|e9|all")
	workers := flag.Int("workers", 4, "transfer workers")
	transfers := flag.Int("transfers", 200, "transfers per worker")
	audits := flag.Int("audits", 50, "audits per audit worker")
	accounts := flag.Int("accounts", 8, "number of accounts")
	flag.Parse()
	sc := scale{workers: *workers, transfers: *transfers, audits: *audits, accounts: *accounts}

	ok := true
	switch *exp {
	case "e5":
		ok = e5(sc)
	case "e6":
		ok = e6(sc)
	case "e7":
		ok = e7(sc)
	case "e9":
		ok = e9(sc)
	case "all":
		ok = e5(sc) && e6(sc) && e7(sc) && e9(sc)
	default:
		fmt.Fprintln(os.Stderr, "bankbench: unknown experiment", *exp)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func runBank(kind sim.Kind, cfg sim.Config, p sim.BankParams) (*sim.Metrics, bool) {
	cfg.Kind = kind
	sys, err := sim.NewSystem(cfg, p.Accounts, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bankbench:", err)
		return nil, false
	}
	m, err := sim.RunBank(sys, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bankbench: %s: %v\n", kind, err)
		return m, false
	}
	return m, true
}

// e5: long read-only activities (§4.2.3). Sweep the audit span; under
// locking, audits block updates and deadlock; under mvcc and hybrid they
// are cheap and never abort.
func e5(sc scale) bool {
	fmt.Println("\nE5 — long read-only activities (audit span sweep), §4.2.3")
	fmt.Printf("%-10s %6s %12s %12s %12s %12s %12s\n",
		"kind", "span", "xfer/s", "xferRetry", "auditRetry", "auditMean", "violations")
	okAll := true
	for _, kind := range []sim.Kind{sim.KindCommut, sim.KindMVCC, sim.KindHybrid} {
		for _, span := range []int{1, sc.accounts / 2, sc.accounts} {
			if span < 1 {
				span = 1
			}
			audits := sc.audits
			if audits > 20 {
				audits = 20 // each audit holds its read locks for span ms
			}
			p := sim.BankParams{
				Accounts:           sc.accounts,
				InitialBalance:     1_000_000,
				TransferWorkers:    sc.workers,
				TransfersPerWorker: sc.transfers,
				AuditWorkers:       2,
				AuditsPerWorker:    audits,
				AuditSpan:          span,
				Amount:             1,
				Seed:               42,
				AuditThink:         time.Millisecond,
				MaxRetries:         50,
			}
			m, ok := runBank(kind, sim.Config{}, p)
			okAll = okAll && ok
			if m == nil {
				continue
			}
			fmt.Printf("%-10s %6d %12.0f %12.3f %12.3f %12v %12d\n",
				kind, span, m.TransferThroughput(), m.TransferAbortRate(), m.AuditAbortRate(), m.MeanAuditLatency().Round(1000), m.ConservationViolations())
		}
	}
	return okAll
}

// e6: updates under static atomicity with poorly synchronized clocks
// (§4.2.3). Sweep the skew; static aborts rise, dynamic is immune (it has
// no timestamps).
func e6(sc scale) bool {
	fmt.Println("\nE6 — clock-skew sweep for updates, §4.2.3")
	fmt.Printf("%-10s %6s %12s %12s %12s\n", "kind", "skew", "xfer/s", "retry/commit", "failed")
	okAll := true
	transfers := sc.transfers
	if transfers > 50 {
		transfers = 50 // conflict storms make each chain expensive
	}
	for _, kind := range []sim.Kind{sim.KindMVCC, sim.KindMVCCClassical, sim.KindCommut} {
		for _, skew := range []int64{0, 2, 8, 32} {
			p := sim.BankParams{
				Accounts:           2,
				InitialBalance:     1_000_000,
				TransferWorkers:    sc.workers,
				TransfersPerWorker: transfers,
				Amount:             1,
				Seed:               42,
				BalanceCheck:       true,
				MaxRetries:         300,
			}
			m, ok := runBank(kind, sim.Config{Skew: skew, Seed: skew + 1}, p)
			okAll = okAll && ok
			if m == nil {
				continue
			}
			fmt.Printf("%-10s %6d %12.0f %12.3f %12d\n",
				kind, skew, m.TransferThroughput(), m.TransferAbortRate(), m.TransferFailed())
			if kind == sim.KindCommut {
				break // dynamic atomicity has no timestamps; one row suffices
			}
		}
	}

	// Second sweep: blind updates only (no balance reads). Deposits and
	// covered withdrawals never change each other's recorded results, so
	// the data-dependent rule admits any timestamp disorder while the
	// classical read/write rule keeps aborting — the §5 "semantics matter"
	// point on the static side.
	fmt.Println("\nE6b — blind updates only: data-dependent vs classical validation")
	fmt.Printf("%-16s %6s %12s %12s\n", "kind", "skew", "xfer/s", "retry/commit")
	for _, kind := range []sim.Kind{sim.KindMVCC, sim.KindMVCCClassical} {
		for _, skew := range []int64{0, 8, 32} {
			p := sim.BankParams{
				Accounts:           2,
				InitialBalance:     1_000_000,
				TransferWorkers:    sc.workers,
				TransfersPerWorker: transfers,
				Amount:             1,
				Seed:               42,
				MaxRetries:         300,
			}
			m, ok := runBank(kind, sim.Config{Skew: skew, Seed: skew + 1}, p)
			okAll = okAll && ok
			if m == nil {
				continue
			}
			fmt.Printf("%-16s %6d %12.0f %12.3f\n", kind, skew, m.TransferThroughput(), m.TransferAbortRate())
		}
	}
	return okAll
}

// e7: §5.1's single-account contention — classical read/write locking vs
// argument-aware commutativity vs state-based (escrow) dynamic atomicity.
func e7(sc scale) bool {
	fmt.Println("\nE7 — single-account withdrawal contention, §5.1")
	fmt.Printf("%-16s %12s %12s %12s %12s\n", "kind", "xfer/s", "xferRetry", "meanLat", "waits")
	okAll := true
	transfers := sc.transfers
	if transfers > 50 {
		transfers = 50 // each transfer holds its locks for ~1ms of think time
	}
	for _, kind := range []sim.Kind{sim.KindRW2PL, sim.KindCommutNameOnly, sim.KindCommut, sim.KindExact, sim.KindEscrow} {
		p := sim.BankParams{
			Accounts:           1,
			InitialBalance:     1_000_000_000,
			TransferWorkers:    sc.workers,
			TransfersPerWorker: transfers,
			Amount:             1,
			Seed:               42,
			Think:              time.Millisecond,
		}
		cfg := sim.Config{Kind: kind}
		sys, err := sim.NewSystem(cfg, p.Accounts, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return false
		}
		m, err := sim.RunBank(sys, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bankbench: %s: %v\n", kind, err)
			okAll = false
		}
		var waits int64
		for _, o := range sys.Objects() {
			if s, okS := o.(interface{ Stats() (int64, int64) }); okS {
				_, w := s.Stats()
				waits += w
			}
		}
		fmt.Printf("%-16s %12.0f %12.3f %12v %12d\n",
			kind, m.TransferThroughput(), m.TransferAbortRate(), m.MeanTransferLatency().Round(1000), waits)
	}
	return okAll
}

// e9: the Lamport banking example (§4.3.3): transfers with concurrent
// full-span audits, locking vs hybrid. Hybrid audits never interfere.
func e9(sc scale) bool {
	fmt.Println("\nE9 — Lamport transfer/audit mix, §4.3.3")
	fmt.Printf("%-10s %12s %12s %12s %12s %12s\n",
		"kind", "xfer/s", "xferRetry", "audit/s", "auditMean", "violations")
	okAll := true
	for _, kind := range []sim.Kind{sim.KindCommut, sim.KindEscrow, sim.KindHybrid} {
		p := sim.BankParams{
			Accounts:           sc.accounts,
			InitialBalance:     1_000_000,
			TransferWorkers:    sc.workers,
			TransfersPerWorker: sc.transfers,
			AuditWorkers:       sc.workers / 2,
			AuditsPerWorker:    sc.audits,
			Amount:             1,
			Seed:               42,
		}
		if p.AuditWorkers < 1 {
			p.AuditWorkers = 1
		}
		m, ok := runBank(kind, sim.Config{}, p)
		okAll = okAll && ok
		if m == nil {
			continue
		}
		auditRate := float64(0)
		if m.Wall > 0 {
			auditRate = float64(m.AuditCommits()) / m.Wall.Seconds()
		}
		fmt.Printf("%-10s %12.0f %12.3f %12.0f %12v %12d\n",
			kind, m.TransferThroughput(), m.TransferAbortRate(), auditRate, m.MeanAuditLatency().Round(1000), m.ConservationViolations())
	}
	return okAll
}
