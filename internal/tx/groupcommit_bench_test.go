package tx_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// BenchmarkGroupCommit is the group-commit ladder on a real file WAL:
// closed-loop workers run escrow transfers among 64 accounts through
// Manager.Run, every commit forced through walGroup and FileWAL's
// pipelined write and fsync stages. One op is one committed transfer,
// shared among the workers; fsyncs/commit shows how many commits each
// force carries as the worker count grows, and overlapped/commit how many
// fsyncs started while another was in flight.
//
//	go test -run '^$' -bench GroupCommit ./internal/tx
func BenchmarkGroupCommit(b *testing.B) {
	const accounts = 64
	fsyncs := obs.Default.Counter("wal.fsync.count")
	overlapped := obs.Default.Counter("wal.fsync.overlapped")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			wal, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer wal.Close()
			det := locking.NewDetector()
			m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Detector: det, WAL: wal})
			if err != nil {
				b.Fatal(err)
			}
			acct := func(i int64) histories.ObjectID { return histories.ObjectID(fmt.Sprintf("acct%d", i%accounts)) }
			for i := int64(0); i < accounts; i++ {
				o, err := locking.New(locking.Config{ID: acct(i), Type: adts.Account(), Guard: locking.EscrowGuard{}, Detector: det})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Register(o); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Run(func(txn *tx.Txn) error {
				for i := int64(0); i < accounts; i++ {
					if _, err := txn.Invoke(acct(i), adts.OpDeposit, value.Int(1_000_000_000)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}

			commitsBefore, _ := m.Stats()
			fsyncsBefore, overlappedBefore := fsyncs.Load(), overlapped.Load()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
						if err := m.Run(func(txn *tx.Txn) error {
							if _, err := txn.Invoke(acct(n), adts.OpWithdraw, value.Int(1)); err != nil {
								return err
							}
							_, err := txn.Invoke(acct(n*7+1), adts.OpDeposit, value.Int(1))
							return err
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			commitsAfter, _ := m.Stats()
			commits := float64(commitsAfter - commitsBefore)
			b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
			b.ReportMetric(float64(fsyncs.Load()-fsyncsBefore)/commits, "fsyncs/commit")
			b.ReportMetric(float64(overlapped.Load()-overlappedBefore)/commits, "overlapped/commit")
		})
	}
}
