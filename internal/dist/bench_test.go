package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// Cluster ladders: commit throughput against cluster size with shard
// migrations in flight, and read-any audit throughput against the
// replication factor. Each rung builds its own cluster on a zero-delay
// network, so the numbers are processor time of the protocol itself.
//
//	go test -run '^$' -bench 'ClusterTransfer|ReplicaAudit' ./internal/dist

const (
	benchAccounts = 8
	benchWorkers  = 4
)

// newBenchCluster builds the harness over sites S0..S<n-1> with the
// accounts spread round-robin, lock waits bounded at 5 ms, no history
// recording, every account funded, and a manager that retries through
// migrations and routes read-only work by the cluster's read router.
func newBenchCluster(b *testing.B, nSites, factor int) (*elastic, *tx.Manager) {
	b.Helper()
	cfg := elasticConfig{waitTimeout: 5 * time.Millisecond}
	for i := 0; i < nSites; i++ {
		cfg.sites = append(cfg.sites, SiteID(fmt.Sprintf("S%d", i)))
	}
	for i := 0; i < benchAccounts; i++ {
		cfg.homes = append(cfg.homes, cfg.sites[i%nSites])
	}
	e := newElasticWith(b, cfg)
	e.replicate(b, factor)
	m := e.newManager(b, tx.Config{
		Property:   tx.Dynamic,
		ReadRouter: e.cluster.ReadRouter(),
		MaxRetries: 10000,
		Backoff:    tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: 43},
	})
	// Funded through m, not e's own manager: both number transactions
	// from 1, and the sites refuse an id they have already decided, so a
	// second manager's first transfers would be refused and retried.
	for _, obj := range e.objects {
		if err := m.Run(func(t *tx.Txn) error {
			_, err := t.Invoke(obj, adts.OpDeposit, value.Int(1_000_000))
			return err
		}); err != nil {
			b.Fatalf("funding %s: %v", obj, err)
		}
	}
	return e, m
}

// runWorkers splits b.N operations over benchWorkers goroutines; op(w, i)
// performs worker w's i-th operation.
func runWorkers(b *testing.B, op func(w, i int) error) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, benchWorkers)
	for w := 0; w < benchWorkers; w++ {
		n := b.N / benchWorkers
		if w < b.N%benchWorkers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := op(w, i); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// background runs fn in a loop until the returned stop is called; stop
// waits for the loop to exit and returns how many calls returned nil.
func background(fn func() error) (stop func() int64) {
	done := make(chan struct{})
	var ok int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if fn() == nil {
				ok++
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return ok
	}
}

// BenchmarkClusterTransfer: one op is one committed two-account transfer,
// a 2PC round whenever the accounts live at different sites, while a
// migration loop moves each account in turn to the next ring member.
// Busy accounts refuse the export drain and the move fails retryably; the
// next lap retries it. rpc/commit (dist.rpc.calls per transfer, the
// migration loop's traffic included), B/commit and allocs/commit (bytes
// and allocations per transfer) report the protocol's cost beside its
// throughput.
func BenchmarkClusterTransfer(b *testing.B) {
	for _, nSites := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d", nSites), func(b *testing.B) {
			e, m := newBenchCluster(b, nSites, 1)
			stop := func() int64 { return 0 }
			if members := e.cluster.Members(); len(members) > 1 {
				lap := 0
				stop = background(func() error {
					obj := e.objects[lap%len(e.objects)]
					lap++
					home, _ := e.cluster.HomeOf(obj)
					dest := members[0]
					for j, s := range members {
						if s == home {
							dest = members[(j+1)%len(members)]
							break
						}
					}
					time.Sleep(time.Millisecond)
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
					defer cancel()
					return e.cluster.Migrate(ctx, obj, dest)
				})
			}
			rpcs := obs.Default.Counter("dist.rpc.calls")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rpc0 := rpcs.Load()
			b.ResetTimer()
			runWorkers(b, func(w, i int) error {
				from := e.objects[(w+i)%len(e.objects)]
				to := e.objects[(w+i+1)%len(e.objects)]
				return m.Run(func(t *tx.Txn) error {
					if _, err := t.Invoke(from, adts.OpWithdraw, value.Int(1)); err != nil {
						return err
					}
					_, err := t.Invoke(to, adts.OpDeposit, value.Int(1))
					return err
				})
			})
			b.StopTimer()
			moves := stop()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
			b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "moves/s")
			b.ReportMetric(float64(rpcs.Load()-rpc0)/float64(b.N), "rpc/commit")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/commit")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/commit")
		})
	}
}

// BenchmarkReplicaAudit: one op is one read-only audit of two accounts on a
// fixed four-site cluster while a depositor streams commuting deposits. At
// factor 1 an audit takes read locks at the leaders, beside the deposits;
// at factor >= 2 it reads a follower snapshot without locks, spread over
// the replica set.
func BenchmarkReplicaAudit(b *testing.B) {
	for _, factor := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("replicas=%d", factor), func(b *testing.B) {
			e, m := newBenchCluster(b, 4, factor)
			n := 0
			stop := background(func() error {
				obj := e.objects[n%len(e.objects)]
				n++
				return m.Run(func(t *tx.Txn) error {
					_, err := t.Invoke(obj, adts.OpDeposit, value.Int(1))
					return err
				})
			})
			b.ResetTimer()
			runWorkers(b, func(w, i int) error {
				pair := [2]histories.ObjectID{e.objects[(w+i)%len(e.objects)], e.objects[(w+i+1)%len(e.objects)]}
				return m.RunReadOnly(func(t *tx.Txn) error {
					for _, obj := range pair {
						if _, err := t.Invoke(obj, adts.OpBalance, value.Nil()); err != nil {
							return err
						}
					}
					return nil
				})
			})
			b.StopTimer()
			deposits := stop()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "audits/s")
			b.ReportMetric(float64(deposits)/b.Elapsed().Seconds(), "deposits/s")
		})
	}
}
