// Command chaos runs the randomized fault-injection harness: a bank/queue
// workload under a chosen local atomicity property while a seeded injector
// drops, duplicates and delays messages, tears and fails log writes, and
// crashes sites inside two-phase commit. The run verifies the paper's own
// oracles — the recorded history satisfies the property's exact checker,
// money is conserved, and (where intentions are logged) a log-only restart
// reproduces the committed state.
//
// Faults are a pure function of (seed, point, hit): rerunning a failing
// seed replays its fault schedule exactly.
//
//	chaos -property dynamic -seed 7 -runs 10
//	chaos -property hybrid -torn 0.1 -fail 0.1
//	chaos -property dynamic -drop 0.2 -dup 0.2 -crash 0.05 -timeout 30s
//	chaos -property dynamic -coordcrash 0.05 -partition 0.5 -checkpoint 2ms
//	chaos -property dynamic -churn -checkpoint 2ms -runs 10
//	chaos -property dynamic -replication -checkpoint 2ms -runs 10
//
// A mode ignores the flags of the others: -partition drives only the
// two-site mode, the flags marked "with -churn" or "with -replication"
// only that mode (-replication wins over -churn), and static and hybrid
// runs read only the workload and log-fault flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"weihl83/internal/chaos"
	"weihl83/internal/tx"
)

func main() {
	var (
		property = flag.String("property", "dynamic", "atomicity property: dynamic, static, hybrid")
		seed     = flag.Int64("seed", 1, "base fault-schedule seed")
		runs     = flag.Int("runs", 1, "number of runs (seeds seed..seed+runs-1)")
		workers  = flag.Int("workers", 3, "concurrent workload clients")
		txns     = flag.Int("txns", 3, "transfer transactions per worker")
		drop     = flag.Float64("drop", 0.05, "request-drop probability (dynamic)")
		dup      = flag.Float64("dup", 0.10, "request-duplication probability (dynamic)")
		rdrop    = flag.Float64("rdrop", 0.05, "reply-drop probability (dynamic)")
		delayP   = flag.Float64("delayp", 0.10, "extra message-delay probability (dynamic)")
		delay    = flag.Duration("delay", 100*time.Microsecond, "injected extra message delay")
		torn     = flag.Float64("torn", 0.05, "torn log-append probability")
		failP    = flag.Float64("fail", 0.05, "failed log-append probability")
		crash    = flag.Float64("crash", 0.03, "site-crash window probability (dynamic)")
		ccrash   = flag.Float64("coordcrash", 0.03, "coordinator-crash window probability (dynamic, -churn; never armed with -replication)")
		part     = flag.Float64("partition", 0.0, "rotating-partition probability per partition tick (two-site dynamic mode only)")
		ckpt     = flag.Duration("checkpoint", 0, "checkpoint+compact the logs this often (0 disables; dynamic)")
		churn    = flag.Bool("churn", false, "elastic-cluster mode: placement ring + coordinator pool + membership churn (dynamic)")
		churnP   = flag.Float64("churnprob", 0.9, "membership-action probability per churn tick (with -churn)")
		migCrash = flag.Float64("migcrash", 0.05, "shard-migration crash-window probability (with -churn)")
		migPart  = flag.Float64("migpartition", 0.2, "mid-migration partition probability (with -churn)")
		repl     = flag.Bool("replication", false, "replica-group mode: every object replicated at factor 3, commuting ops stream to followers, two snapshot-audit clients read anywhere (dynamic)")
		replDrop = flag.Float64("repldrop", 0.2, "follower delivery-drop probability (with -replication)")
		replCr   = flag.Float64("replcrash", 0.05, "follower apply-window crash probability (with -replication)")
		replPart = flag.Float64("replpartition", 0.3, "single-site partition probability per tick (with -replication)")
		timeout  = flag.Duration("timeout", 30*time.Second, "wall-clock bound per run")
		verbose  = flag.Bool("v", false, "dump every run, not just failures")
	)
	flag.Parse()

	var prop tx.Property
	switch *property {
	case "dynamic":
		prop = tx.Dynamic
	case "static":
		prop = tx.Static
	case "hybrid":
		prop = tx.Hybrid
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown property %q\n", *property)
		os.Exit(2)
	}

	failed := 0
	for i := 0; i < *runs; i++ {
		cfg := chaos.Config{
			Property:             prop,
			Seed:                 *seed + int64(i),
			Workers:              *workers,
			Txns:                 *txns,
			DropProb:             *drop,
			DupProb:              *dup,
			ReplyDropProb:        *rdrop,
			DelayProb:            *delayP,
			Delay:                *delay,
			TornProb:             *torn,
			FailProb:             *failP,
			CrashPrepareProb:     *crash,
			CrashCommitProb:      *crash,
			CoordCrashProb:       *ccrash,
			PartitionProb:        *part,
			CheckpointEvery:      *ckpt,
			Churn:                *churn,
			ChurnProb:            *churnP,
			MigrateCrashProb:     *migCrash,
			MigratePartitionProb: *migPart,
			Replication:          *repl,
			ReplicaDropProb:      *replDrop,
			ReplicaCrashProb:     *replCr,
			ReplicaPartitionProb: *replPart,
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		rep, err := chaos.Run(ctx, cfg)
		cancel()
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "FAIL seed=%d: %v\n", cfg.Seed, err)
			if rep != nil {
				fmt.Fprintln(os.Stderr, rep.Dump())
				// The history the checker refused, when it did.
				for i, e := range rep.History {
					fmt.Fprintf(os.Stderr, "  [%04d] %s\n", i, e)
				}
				// The full observability snapshot — every counter,
				// histogram and the transaction event trace — as one JSON
				// document, for replaying the failure offline.
				if js, jerr := rep.Obs.JSON(); jerr == nil {
					fmt.Fprintln(os.Stderr, string(js))
				}
			}
		case *verbose:
			fmt.Println(rep.Dump())
			// Summary, not String: -v output must stay byte-identical across
			// replays of a seed, so no wall-clock latency values here.
			fmt.Print(rep.Obs.Summary())
		default:
			extra := ""
			if cfg.Replication {
				extra = fmt.Sprintf(" audits=%d converged=%v", rep.Audits, rep.Converged)
			}
			fmt.Printf("ok   seed=%d property=%s commits=%d aborts=%d crashes=%d balances=%v%s\n",
				rep.Seed, rep.Property, rep.Commits, rep.Aborts, rep.Crashes, rep.Balances, extra)
			fmt.Printf("     obs: tx.commit=%d tx.retry=%d cc.locking.conflicts=%d dist.rpc.retransmits=%d wal.appends=%d fault.fires=%d trace=%d events\n",
				rep.Obs.Counter("tx.commit"), rep.Obs.Counter("tx.retry"),
				rep.Obs.Counter("cc.locking.conflicts"), rep.Obs.Counter("dist.rpc.retransmits"),
				rep.Obs.Counter("wal.appends"), rep.Obs.Counter("fault.fires"),
				rep.Obs.TraceRecorded)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d of %d runs failed\n", failed, *runs)
		os.Exit(1)
	}
}
