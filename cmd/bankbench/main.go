// Command bankbench regenerates the paper's comparative experiments as
// tables (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	bankbench -exp e5        audit length sweep: locking vs mvcc vs hybrid
//	bankbench -exp e6        clock-skew sweep: static aborts vs dynamic waits
//	bankbench -exp e7        single-account contention: rw vs commut vs escrow
//	bankbench -exp e9        Lamport audit mix: locking vs hybrid
//	bankbench -exp hotpath   runtime hot path: commit throughput vs workers
//	bankbench -exp guardcascade  conflict-engine cascade vs raw guards
//	bankbench -exp shard     elastic cluster: commit/s vs sites, migrations in flight
//	bankbench -exp replication  replica groups: commuting commit/s, read-any audit/s
//	                         and sync-barrier cost vs replication factor
//	bankbench -exp all       everything (hotpath and guardcascade excluded;
//	                         run them explicitly)
//
// Flags scale the workload (-transfers, -audits, -workers, -accounts).
// With -json, the human-readable tables go to stderr and stdout carries one
// machine-readable JSON document: every table row plus the process-wide
// observability snapshot — suitable for redirecting into a committed
// BENCH_*.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/sim"
)

type scale struct {
	workers   int
	transfers int
	audits    int
	accounts  int
}

// tout receives the human-readable tables (stdout normally, stderr under
// -json so stdout stays pure JSON).
var tout io.Writer = os.Stdout

// benchRow is one table row in machine-readable form.
type benchRow struct {
	Exp               string                `json:"exp"`
	Kind              string                `json:"kind"`
	Labels            map[string]int64      `json:"labels,omitempty"`
	WallNS            int64                 `json:"wall_ns"`
	CommitsPerSec     float64               `json:"commits_per_sec,omitempty"`
	TransfersPerSec   float64               `json:"transfers_per_sec"`
	TransferRetryRate float64               `json:"transfer_retry_rate"`
	TransferFailed    int64                 `json:"transfer_failed"`
	AuditsPerSec      float64               `json:"audits_per_sec"`
	AuditRetryRate    float64               `json:"audit_retry_rate"`
	Violations        int64                 `json:"violations"`
	TransferLatency   obs.HistogramSnapshot `json:"transfer_latency_ns"`
	AuditLatency      obs.HistogramSnapshot `json:"audit_latency_ns"`
	// Commit-latency percentiles of the runtime's tx.commit.latency_ns
	// histogram over this row's window (a delta snapshot between row
	// boundaries, so rows in one invocation don't contaminate each other).
	CommitLatencyP50NS int64 `json:"commit_latency_p50_ns"`
	CommitLatencyP95NS int64 `json:"commit_latency_p95_ns"`
	CommitLatencyP99NS int64 `json:"commit_latency_p99_ns"`
}

// commitLatBase is the tx.commit.latency_ns snapshot at the previous row
// boundary; commitLatencyDelta advances it.
var commitLatBase obs.HistogramSnapshot

// commitLatencyDelta returns the commit-latency observations since the
// previous row boundary and moves the boundary forward.
func commitLatencyDelta() obs.HistogramSnapshot {
	cur := obs.SnapshotOf(obs.Default.Histogram("tx.commit.latency_ns"))
	d := cur.DeltaSince(commitLatBase)
	commitLatBase = cur
	return d
}

// stampCommitLatency fills the row's commit-latency percentile columns
// from the current delta window.
func stampCommitLatency(r *benchRow) {
	d := commitLatencyDelta()
	r.CommitLatencyP50NS = d.P50
	r.CommitLatencyP95NS = d.Quantile(0.95)
	r.CommitLatencyP99NS = d.Quantile(0.99)
}

// benchDoc is the -json output: rows plus the observability snapshot
// accumulated across every run in the invocation.
type benchDoc struct {
	Experiment string       `json:"experiment"`
	Scale      scaleDoc     `json:"scale"`
	Rows       []benchRow   `json:"rows"`
	Obs        obs.Snapshot `json:"obs"`
}

type scaleDoc struct {
	Workers   int `json:"workers"`
	Transfers int `json:"transfers"`
	Audits    int `json:"audits"`
	Accounts  int `json:"accounts"`
}

// jsonDoc is non-nil when -json collects rows.
var jsonDoc *benchDoc

// record adds one row to the -json document (a no-op otherwise).
func record(exp string, kind sim.Kind, labels map[string]int64, m *sim.Metrics) {
	if jsonDoc == nil || m == nil {
		return
	}
	auditRate := float64(0)
	if m.Wall > 0 {
		auditRate = float64(m.AuditCommits()) / m.Wall.Seconds()
	}
	row := benchRow{
		Exp:               exp,
		Kind:              kind.String(),
		Labels:            labels,
		WallNS:            int64(m.Wall),
		TransfersPerSec:   m.TransferThroughput(),
		TransferRetryRate: m.TransferAbortRate(),
		TransferFailed:    m.TransferFailed(),
		AuditsPerSec:      auditRate,
		AuditRetryRate:    m.AuditAbortRate(),
		Violations:        m.ConservationViolations(),
		TransferLatency:   m.TransferLatencyStats(),
		AuditLatency:      m.AuditLatencyStats(),
	}
	stampCommitLatency(&row)
	jsonDoc.Rows = append(jsonDoc.Rows, row)
}

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment: e5|e6|e7|e9|hotpath|guardcascade|shard|replication|all")
	workers := flag.Int("workers", 4, "transfer workers")
	transfers := flag.Int("transfers", 200, "transfers per worker")
	audits := flag.Int("audits", 50, "audits per audit worker")
	accounts := flag.Int("accounts", 8, "number of accounts")
	repeat := flag.Int("repeat", 3, "hotpath: repeats per configuration (best run reported)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	jsonFlag := flag.Bool("json", false, "emit machine-readable JSON on stdout (tables go to stderr)")
	flag.Parse()
	hotRepeat = *repeat
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	sc := scale{workers: *workers, transfers: *transfers, audits: *audits, accounts: *accounts}
	if *jsonFlag {
		tout = os.Stderr
		jsonDoc = &benchDoc{
			Experiment: *exp,
			Scale:      scaleDoc{Workers: sc.workers, Transfers: sc.transfers, Audits: sc.audits, Accounts: sc.accounts},
			Rows:       []benchRow{},
		}
		obs.Default.Reset() // scope the snapshot to this invocation
	}

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
	case "hotpath":
		ok = hotpath(sc)
	case "guardcascade":
		ok = guardcascade(sc)
	case "shard":
		ok = shardExp(sc)
	case "replication":
		ok = replicationExp(sc)
	case "all":
		ok = e5(sc) && e6(sc) && e7(sc) && e9(sc)
	default:
		fmt.Fprintln(os.Stderr, "bankbench: unknown experiment", *exp)
		return 2
	}
	if jsonDoc != nil {
		jsonDoc.Obs = obs.Default.Snapshot(false)
		out, err := json.MarshalIndent(jsonDoc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench: marshal:", err)
			return 1
		}
		fmt.Println(string(out))
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
	fmt.Fprintln(tout, "\nE5 — long read-only activities (audit span sweep), §4.2.3")
	fmt.Fprintf(tout, "%-10s %6s %12s %12s %12s %12s %12s\n",
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
			fmt.Fprintf(tout, "%-10s %6d %12.0f %12.3f %12.3f %12v %12d\n",
				kind, span, m.TransferThroughput(), m.TransferAbortRate(), m.AuditAbortRate(), m.MeanAuditLatency().Round(1000), m.ConservationViolations())
			record("e5", kind, map[string]int64{"span": int64(span)}, m)
		}
	}
	return okAll
}

// e6: updates under static atomicity with poorly synchronized clocks
// (§4.2.3). Sweep the skew; static aborts rise, dynamic is immune (it has
// no timestamps).
func e6(sc scale) bool {
	fmt.Fprintln(tout, "\nE6 — clock-skew sweep for updates, §4.2.3")
	fmt.Fprintf(tout, "%-10s %6s %12s %12s %12s\n", "kind", "skew", "xfer/s", "retry/commit", "failed")
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
			fmt.Fprintf(tout, "%-10s %6d %12.0f %12.3f %12d\n",
				kind, skew, m.TransferThroughput(), m.TransferAbortRate(), m.TransferFailed())
			record("e6", kind, map[string]int64{"skew": skew}, m)
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
	fmt.Fprintln(tout, "\nE6b — blind updates only: data-dependent vs classical validation")
	fmt.Fprintf(tout, "%-16s %6s %12s %12s\n", "kind", "skew", "xfer/s", "retry/commit")
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
			fmt.Fprintf(tout, "%-16s %6d %12.0f %12.3f\n", kind, skew, m.TransferThroughput(), m.TransferAbortRate())
			record("e6b", kind, map[string]int64{"skew": skew}, m)
		}
	}
	return okAll
}

// e7: §5.1's single-account contention — classical read/write locking vs
// argument-aware commutativity vs state-based (escrow) dynamic atomicity.
func e7(sc scale) bool {
	fmt.Fprintln(tout, "\nE7 — single-account withdrawal contention, §5.1")
	fmt.Fprintf(tout, "%-16s %12s %12s %12s %12s\n", "kind", "xfer/s", "xferRetry", "meanLat", "waits")
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
		fmt.Fprintf(tout, "%-16s %12.0f %12.3f %12v %12d\n",
			kind, m.TransferThroughput(), m.TransferAbortRate(), m.MeanTransferLatency().Round(1000), waits)
		record("e7", kind, map[string]int64{"waits": waits}, m)
	}
	return okAll
}

// e9: the Lamport banking example (§4.3.3): transfers with concurrent
// full-span audits, locking vs hybrid. Hybrid audits never interfere.
func e9(sc scale) bool {
	fmt.Fprintln(tout, "\nE9 — Lamport transfer/audit mix, §4.3.3")
	fmt.Fprintf(tout, "%-10s %12s %12s %12s %12s %12s\n",
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
		fmt.Fprintf(tout, "%-10s %12.0f %12.3f %12.0f %12v %12d\n",
			kind, m.TransferThroughput(), m.TransferAbortRate(), auditRate, m.MeanAuditLatency().Round(1000), m.ConservationViolations())
		record("e9", kind, nil, m)
	}
	return okAll
}

// hotRepeat is how many times hotpath runs each configuration; the best
// run is reported (interference on a shared machine only ever slows a run
// down, so best-of-N is the low-noise estimator).
var hotRepeat = 3

// hotpath measures the transaction runtime's hot path: committed
// transactions per second with history recording ENABLED, a transfer-only
// workload with no think time, swept across 1/4/16 workers. Three
// configurations bracket the runtime's serial sections: plain dynamic
// atomicity (event recording + registry), dynamic with a write-ahead log
// (the commit/group-commit path), and hybrid (commit-timestamp ordering).
// The committed BENCH_hotpath.json pins before/after numbers for the
// sharded-recorder + group-commit refactor; `make bench-hotpath` guards
// against regressions.
func hotpath(sc scale) bool {
	fmt.Fprintln(tout, "\nHOTPATH — commit throughput with recording enabled")
	fmt.Fprintf(tout, "%-12s %8s %12s %12s %12s\n", "kind", "workers", "commit/s", "xfer/s", "retry/commit")
	okAll := true
	for _, variant := range []struct {
		label string
		kind  sim.Kind
		wal   bool
	}{
		{"commut", sim.KindCommut, false},
		{"commut+wal", sim.KindCommut, true},
		{"hybrid", sim.KindHybrid, false},
	} {
		for _, workers := range []int{1, 4, 16} {
			p := sim.BankParams{
				Accounts:           sc.accounts,
				InitialBalance:     1_000_000_000,
				TransferWorkers:    workers,
				TransfersPerWorker: sc.transfers,
				Amount:             1,
				Seed:               42,
			}
			var best *sim.Metrics
			var bestCps float64
			for rep := 0; rep < hotRepeat; rep++ {
				cfg := sim.Config{Kind: variant.kind, Record: true}
				if variant.wal {
					cfg.WAL = &recovery.Disk{}
				}
				sys, err := sim.NewSystem(cfg, p.Accounts, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bankbench:", err)
					return false
				}
				m, err := sim.RunBank(sys, p)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bankbench: hotpath %s: %v\n", variant.label, err)
					okAll = false
				}
				if m == nil {
					continue
				}
				commits, _ := sys.Manager.Stats()
				cps := float64(0)
				if m.Wall > 0 {
					cps = float64(commits) / m.Wall.Seconds()
				}
				if best == nil || cps > bestCps {
					best, bestCps = m, cps
				}
			}
			if best == nil {
				continue
			}
			fmt.Fprintf(tout, "%-12s %8d %12.0f %12.0f %12.3f\n",
				variant.label, workers, bestCps, best.TransferThroughput(), best.TransferAbortRate())
			if jsonDoc != nil {
				record("hotpath", variant.kind, map[string]int64{"workers": int64(workers)}, best)
				row := &jsonDoc.Rows[len(jsonDoc.Rows)-1]
				row.Kind = variant.label
				row.CommitsPerSec = bestCps
			}
		}
	}
	return okAll
}
