package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"weihl83"
)

// runCtx is what one run of one workload carries between its phases.
type runCtx struct {
	seed   int64
	outDir string
	// walDir holds file_wal_transfer's fixed log, written once per run as an
	// input and never opened again; walBalances is what the accounts held
	// when it was closed. liveDir is the copy the current stack runs on.
	walDir      string
	walBalances []int64
	liveDir     string
	tmpDirs     []string
	// extra collects one-off layer timings taken outside the load windows
	// (milliseconds), reported on traced runs.
	extra map[string]float64
}

// workload is one row of the ledger: a stack, the load put on it, and why.
type workload struct {
	name string
	why  string
	// prepare writes inputs the set-up reads, once per run; stage readies
	// them for the next set-up pass. Neither is part of the timed set-up.
	prepare func(rc *runCtx) error
	stage   func(rc *runCtx) error
	// build is the whole set-up: assemble the stack, seed the balances,
	// warm the connections. tr is nil on the untraced path, which must go
	// through the entry points a user calls.
	build func(rc *runCtx, tr *tracer, ws []*worker) (*stack, error)
	// gen draws a worker's next operation.
	gen func(w *worker) op
}

const (
	memAccounts = 4096
	// The contended workloads keep their load on a few accounts of a bank
	// of bankAccounts, so that set-up (building and seeding the bank) is
	// long enough to time.
	bankAccounts   = 1024
	hotAccounts    = 2
	hybridAccounts = 64
	// populateWorkers write the fixed log; more than the measured load
	// uses, because the log is an input and only its size is specified.
	populateWorkers = 8
)

// amount draws a transfer amount; small against the seed balance, so no
// withdrawal is ever refused.
func amount(rng *rand.Rand) int64 { return 1 + rng.Int63n(100) }

// twoOf draws two distinct indices below n.
func twoOf(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// auditOneIn is the read-only share of the update-heavy workloads.
const auditOneIn = 8

// mostlyTransfers is the closed-loop mix of the update-heavy workloads: one
// operation in auditOneIn is a read-only audit of two accounts, the rest
// move money between two accounts chosen by pick.
func mostlyTransfers(pick func(*rand.Rand) (int, int)) func(*worker) op {
	return func(w *worker) op {
		a, b := pick(w.rng)
		if w.rng.Intn(auditOneIn) == 0 {
			return op{kind: opAuditPair, a: a, b: b}
		}
		return op{kind: opTransfer, a: a, b: b, amt: amount(w.rng)}
	}
}

func uniformPair(n int) func(*rand.Rand) (int, int) {
	return func(rng *rand.Rand) (int, int) { return twoOf(rng, n) }
}

// crossSitePair draws two cluster accounts homed at different sites
// (accounts are placed round-robin), so every transfer is a two-site 2PC.
func crossSitePair(rng *rand.Rand) (int, int) {
	for {
		a, b := twoOf(rng, clusterAccounts)
		if a%clusterSites != b%clusterSites {
			return a, b
		}
	}
}

func facadeBuild(fs facadeSpec) func(*runCtx, *tracer, []*worker) (*stack, error) {
	return func(rc *runCtx, tr *tracer, _ []*worker) (*stack, error) {
		if tr != nil {
			st, _, err := buildFacadeTraced(fs, tr)
			return st, err
		}
		st, _, err := buildFacade(fs)
		return st, err
	}
}

var workloads = []*workload{
	{
		name: "mem_transfer",
		why:  "uncontended in-memory transfers: tx, locking and the static conflict tier do all the work, WAL, dist and service none",
		build: facadeBuild(facadeSpec{
			property: weihl83.Dynamic, guard: weihl83.GuardCommut, accounts: memAccounts,
		}),
		gen: mostlyTransfers(uniformPair(memAccounts)),
	},
	{
		name: "hot_cascade",
		why:  "two hot accounts under the cascade guard: predicate, summary and exact tiers, decision cache, lock waits and deadlock retries",
		build: facadeBuild(facadeSpec{
			property: weihl83.Dynamic, guard: weihl83.GuardCascade, accounts: bankAccounts, active: hotAccounts,
		}),
		gen: func(w *worker) op {
			if w.rng.Intn(auditOneIn) == 0 {
				return op{kind: opAuditAll}
			}
			o := op{kind: opCascade}
			for i := range o.legs {
				from := w.rng.Intn(2)
				o.legs[i] = leg{from: from, to: 1 - from, amt: amount(w.rng)}
			}
			return o
		},
	},
	{
		name: "hybrid_audit_mix",
		why:  "hybrid atomicity: one worker transfers among 64 accounts while the other audits all 64 from snapshots, so reads run beside writes",
		build: facadeBuild(facadeSpec{
			property: weihl83.Hybrid, guard: weihl83.GuardCommut, accounts: bankAccounts, active: hybridAccounts,
		}),
		gen: func(w *worker) op {
			if w.id == 1 {
				return op{kind: opAuditAll}
			}
			a, b := twoOf(w.rng, hybridAccounts)
			return op{kind: opTransfer, a: a, b: b, amt: amount(w.rng)}
		},
	},
	{
		name:    "file_wal_transfer",
		why:     "transfers on the file WAL after a cold recovery of a fixed 20000-transfer log: codec, framing and group-commit fsync dominate",
		prepare: populateWAL,
		stage:   stageWAL,
		build: func(rc *runCtx, tr *tracer, ws []*worker) (*stack, error) {
			fs := facadeSpec{property: weihl83.Dynamic, guard: weihl83.GuardCommut, accounts: memAccounts, walDir: rc.liveDir}
			return buildRecovered(rc, fs, tr)
		},
		gen: mostlyTransfers(uniformPair(memAccounts)),
	},
	{
		name: "cluster_2pc",
		why:  "four sites, two coordinators, every transfer a two-site 2PC: network, RPC, reply cache, site WAL and coordinator cost, no replication",
		build: func(rc *runCtx, tr *tracer, _ []*worker) (*stack, error) {
			return buildCluster(rc.seed, 1, tr)
		},
		gen: mostlyTransfers(crossSitePair),
	},
	{
		name: "replica_mix",
		why:  "same cluster at replication factor 3: commuting deposits ship asynchronously, transfers pay the sync barrier, audits read any replica",
		build: func(rc *runCtx, tr *tracer, _ []*worker) (*stack, error) {
			return buildCluster(rc.seed, 3, tr)
		},
		// Both workers run the whole mix: half read-any audits of two
		// accounts, and of the updates nine deposits to one transfer.
		gen: func(w *worker) op {
			switch r := w.rng.Intn(20); {
			case r < 10:
				a, b := twoOf(w.rng, clusterAccounts)
				return op{kind: opAuditPair, a: a, b: b}
			case r < 11:
				a, b := crossSitePair(w.rng)
				return op{kind: opTransfer, a: a, b: b, amt: amount(w.rng)}
			default:
				return op{kind: opDeposit, a: w.rng.Intn(clusterAccounts), amt: amount(w.rng)}
			}
		},
	},
	{
		name: "service_closed",
		why:  "HTTP service in-process over two persistent connections, closed loop, Zipf keys, 10% read-only: admission, JSON, net/http and client",
		build: func(rc *runCtx, tr *tracer, ws []*worker) (*stack, error) {
			return buildService(tr, ws)
		},
		gen: func(w *worker) op {
			if w.zipf == nil {
				w.zipf = rand.NewZipf(w.rng, 1.1, 1, serviceKeys-1)
			}
			a, b := int(w.zipf.Uint64()), int(w.zipf.Uint64())
			if a == b {
				b = (a + 1) % serviceKeys
			}
			if w.rng.Intn(10) == 0 {
				return op{kind: opAuditPair, a: a, b: b}
			}
			return op{kind: opTransfer, a: a, b: b, amt: amount(w.rng)}
		},
	},
}

// walPopulate is how many transfers file_wal_transfer's fixed log holds
// (the tests shorten it).
var walPopulate = 20_000

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// workerSeed derives a worker's generator seed from the run's.
func workerSeed(seed int64, worker int) int64 { return seed*1_000_003 + int64(worker)*7919 + 17 }

// populateWAL writes file_wal_transfer's input: a fresh WAL directory
// holding the seed deposits and exactly walPopulate committed transfers,
// with one checkpoint after the first half. It leaves the log closed and
// remembers the balances it held.
func populateWAL(rc *runCtx) error {
	dir, err := os.MkdirTemp(rc.outDir, "wal-")
	if err != nil {
		return err
	}
	rc.walDir = dir
	rc.tmpDirs = append(rc.tmpDirs, dir)
	fs := facadeSpec{property: weihl83.Dynamic, guard: weihl83.GuardCommut, accounts: memAccounts, walDir: dir}
	start := time.Now()
	st, sys, err := buildFacade(fs)
	if err != nil {
		return err
	}
	defer st.close()
	if err := seedAccounts(sys, accountIDs(memAccounts)); err != nil {
		return err
	}
	half := func(phase int) error {
		var wg sync.WaitGroup
		errs := make([]error, populateWorkers)
		for i := 0; i < populateWorkers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := &worker{id: i, rng: rand.New(rand.NewSource(workerSeed(rc.seed, 100+10*phase+i)))}
				for n := 0; n < walPopulate/2/populateWorkers; n++ {
					a, b := twoOf(w.rng, memAccounts)
					o := op{kind: opTransfer, a: a, b: b, amt: amount(w.rng)}
					if err := st.exec(w, &o); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("populating WAL: %w", err)
			}
		}
		return nil
	}
	if err := half(0); err != nil {
		return err
	}
	if _, err := sys.Checkpoint(); err != nil {
		return err
	}
	if err := half(1); err != nil {
		return err
	}
	if rc.walBalances, err = st.balances(); err != nil {
		return err
	}
	rc.extra["recovery.populate_ms"] = ms(time.Since(start))
	return nil
}

// stageWAL gives the next set-up pass its own copy of the fixed log, so every
// pass recovers the same bytes.
func stageWAL(rc *runCtx) error {
	dir, err := os.MkdirTemp(rc.outDir, "wal-")
	if err != nil {
		return err
	}
	rc.tmpDirs = append(rc.tmpDirs, dir)
	rc.liveDir = dir
	ents, err := os.ReadDir(rc.walDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(rc.walDir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// buildRecovered is file_wal_transfer's set-up: a cold open of a copy of the
// populated log, a rebuild of every account from it, and a checkpoint. The
// returned stack's check is the durability oracle: whatever the live system
// holds after the load must be what another cold recovery of the same
// directory rebuilds.
//
// The checkpoint is there because a reopened system numbers its
// transactions from t1 again: without it, the new life's ids collide with
// the previous life's records still in the log, and the next recovery
// replays the wrong intentions under them (it fails outright once a logged
// balance read no longer replays). Checkpointing after recovery leaves no
// earlier-life record to collide with.
func buildRecovered(rc *runCtx, fs facadeSpec, tr *tracer) (*stack, error) {
	var st *stack
	var sys checkpointer
	var err error
	start := time.Now()
	if tr != nil {
		st, sys, err = buildFacadeTraced(fs, tr)
	} else {
		st, sys, err = buildFacade(fs)
	}
	if err != nil {
		return nil, err
	}
	recovered := time.Now()
	if _, err := sys.Checkpoint(); err != nil {
		st.close()
		return nil, err
	}
	rc.extra["recovery.recover_ms"] = ms(recovered.Sub(start))
	rc.extra["recovery.checkpoint_ms"] = ms(time.Since(recovered))
	live := st.check
	st.check = func() error {
		if err := live(); err != nil {
			return err
		}
		want, err := st.balances()
		if err != nil {
			return err
		}
		st.close()
		again, _, err := buildFacade(fs)
		if err != nil {
			return fmt.Errorf("cold recovery after the load: %w", err)
		}
		defer again.close()
		got, err := again.balances()
		if err != nil {
			return err
		}
		return sameBalances(got, want, "cold recovery after the load")
	}
	return st, nil
}

// verifyRecovered checks a freshly recovered stack against the balances the
// log was closed with (outside the timed set-up).
func verifyRecovered(rc *runCtx, st *stack) error {
	got, err := st.balances()
	if err != nil {
		return err
	}
	return sameBalances(got, rc.walBalances, "recovery of the populated log")
}

func sameBalances(got, want []int64, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("bench: %s: %d accounts, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("bench: %s: acct%d holds %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// scratchDir makes the directory run-time files go to.
func scratchDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(out)
}
