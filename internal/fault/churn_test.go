package fault_test

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"weihl83/internal/chaos"
	"weihl83/internal/tx"
)

// churnConfig is the elastic-cluster chaos configuration: every fault class
// from faultyConfig plus membership churn (fault.ClusterChurn drives the
// join/leave/move/rebalance cadence) and the migration fault windows. The
// rotating whole-network partition driver is replaced by the targeted
// mid-migration partitions of fault.MigratePartition.
func churnConfig(seed int64) chaos.Config {
	cfg := faultyConfig(tx.Dynamic, seed)
	cfg.PartitionProb = 0
	cfg.Churn = true
	cfg.ChurnProb = 0.9
	cfg.MigrateCrashProb = 0.05
	cfg.MigratePartitionProb = 0.2
	return cfg
}

// TestChaosChurn runs the elastic cluster under membership churn across the
// seed matrix — including seed 2, the historically flaky one — verifying
// the harness's oracles: the history is dynamic atomic, money is conserved,
// a log-only restart reproduces every committed state at its post-churn
// home, and every object ends singly-homed no matter which migration
// window a crash or partition hit.
func TestChaosChurn(t *testing.T) {
	var moves, churnFires int64
	for _, seed := range []int64{1, 2, 3, 4, 7} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		rep, err := chaos.Run(ctx, churnConfig(seed))
		cancel()
		if err != nil {
			if rep != nil {
				t.Log(rep.Dump())
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.CheckErr != "" {
			t.Errorf("seed %d checker: %s", seed, rep.CheckErr)
		}
		if !rep.Conserved {
			t.Errorf("seed %d: money not conserved: %v", seed, rep.Balances)
		}
		moves += rep.Obs.Counter("dist.cluster.moves")
		churnFires += rep.Obs.Counter("fault.fire.cluster.churn")
	}
	if churnFires == 0 {
		t.Error("fault.ClusterChurn never fired across the seed matrix; churn not exercised")
	}
	if moves == 0 {
		t.Error("no shard migration committed across the seed matrix; elastic layer not exercised")
	}
}

// replicationConfig is the `make chaos-replication` configuration:
// cmd/chaos's defaults with -replication -checkpoint 2ms. The two-site
// knobs faultyConfig sets (PartitionProb, CoordCrashProb) stay set: the
// replication mode must ignore them.
func replicationConfig(seed int64) chaos.Config {
	cfg := faultyConfig(tx.Dynamic, seed)
	cfg.DelayProb, cfg.Delay = 0.10, 100*time.Microsecond
	cfg.Replication = true
	cfg.ReplicaDropProb = 0.2
	cfg.ReplicaCrashProb = 0.05
	cfg.ReplicaPartitionProb = 0.3
	return cfg
}

// TestChaosReplication runs the replica-group mode across seeds 1–5,
// verifying the harness's oracles — atomicity, conservation, restart
// replay, single-homing, atomic audit snapshots and follower convergence
// before and after a crash-all restart — and that every replica fault
// class actually fired somewhere in the matrix.
func TestChaosReplication(t *testing.T) {
	fires := map[string]int64{
		"fault.fire.repl.deliver.drop": 0,
		"fault.fire.repl.apply.crash":  0,
		"fault.fire.repl.partition":    0,
	}
	for seed := int64(1); seed <= 5; seed++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		rep, err := chaos.Run(ctx, replicationConfig(seed))
		cancel()
		if err != nil {
			if rep != nil {
				t.Log(rep.Dump())
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Converged {
			t.Errorf("seed %d: replicas did not converge", seed)
		}
		if rep.Audits == 0 {
			t.Errorf("seed %d: no snapshot audit completed", seed)
		}
		for name := range fires {
			fires[name] += rep.Obs.Counter(name)
		}
	}
	for name, n := range fires {
		if n == 0 {
			t.Errorf("%s = 0 across the seed matrix; fault class not exercised", name)
		}
	}
}

// TestChaosChurnSoak re-runs the churn matrix many times when
// CHAOS_CHURN_SOAK names a run count (e.g. CHAOS_CHURN_SOAK=100); plain
// `go test` does a 2-round smoke. Each round cycles fresh seeds so the
// fault schedules differ.
func TestChaosChurnSoak(t *testing.T) {
	rounds := 2
	if s := os.Getenv("CHAOS_CHURN_SOAK"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_CHURN_SOAK=%q", s)
		}
		rounds = n
	}
	for i := 0; i < rounds; i++ {
		seed := int64(100 + i)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		rep, err := chaos.Run(ctx, churnConfig(seed))
		cancel()
		if err != nil {
			if rep != nil {
				t.Log(rep.Dump())
			}
			t.Fatalf("soak round %d/%d seed %d: %v", i+1, rounds, seed, err)
		}
	}
}
