// Benchmarks regenerating each experiment in DESIGN.md §4 (E1–E9, F1,
// A1–A3) as testing.B benchmarks. The shaped tables (latency under lock
// holding, audit sweeps) are produced by cmd/bankbench; these benchmarks
// measure the protocol and checker overheads that underlie them, one
// benchmark (or group) per experiment.
//
// Run with: go test -bench=. -benchmem
package weihl83_test

import (
	"fmt"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/core"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/mvcc"
	"weihl83/internal/obs"
	"weihl83/internal/paper"
	"weihl83/internal/recovery"
	"weihl83/internal/sched"
	"weihl83/internal/sim"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// --- E1: paper-sequence verdict table -----------------------------------

func BenchmarkE1PaperSequences(b *testing.B) {
	hs := make([]histories.History, len(paper.Sequences))
	for i, ps := range paper.Sequences {
		hs[i] = ps.History()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck := paper.NewChecker()
		for _, h := range hs {
			_, _ = ck.Atomic(h)
			_ = ck.DynamicAtomic(h)
			_ = ck.StaticAtomic(h)
			_ = ck.HybridAtomic(h)
		}
	}
}

// --- E2/E4: offline checker costs on protocol-generated histories -------

func recordedBankHistory(b *testing.B, kind sim.Kind) histories.History {
	b.Helper()
	sys, err := sim.NewSystem(sim.Config{Kind: kind, Record: true}, 2, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.RunBank(sys, sim.BankParams{
		Accounts:           2,
		InitialBalance:     1000,
		TransferWorkers:    2,
		TransfersPerWorker: 4,
		AuditWorkers:       1,
		AuditsPerWorker:    2,
		Amount:             1,
		Seed:               7,
	}); err != nil {
		b.Fatal(err)
	}
	return sys.Manager.History()
}

func bankChecker() *core.Checker {
	ck := core.NewChecker()
	ck.Register("acct0", adts.AccountSpec{})
	ck.Register("acct1", adts.AccountSpec{})
	return ck
}

func BenchmarkE2DynamicCheck(b *testing.B) {
	h := recordedBankHistory(b, sim.KindEscrow)
	ck := bankChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.DynamicAtomic(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4StaticCheck(b *testing.B) {
	h := recordedBankHistory(b, sim.KindMVCC)
	ck := bankChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.StaticAtomic(h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: the optimality construction -------------------------------------

func BenchmarkE3Optimality(b *testing.B) {
	hx := findPaperSeq(b, "S4.1-atomic-not-dynamic").History()
	hy := histories.MustParse(`
<increment,c,b>
<1,c,b>
<commit,c,b>
<increment,c,a>
<2,c,a>
<commit,c,a>
`)
	combined := hx.Append(hy...)
	ck := paper.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Atomic(combined); err == nil {
			b.Fatal("composition unexpectedly atomic")
		}
	}
}

// --- E5/E9: banking workloads per protocol -------------------------------

func benchBank(b *testing.B, kind sim.Kind, audits bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(sim.Config{Kind: kind}, 4, false)
		if err != nil {
			b.Fatal(err)
		}
		p := sim.BankParams{
			Accounts:           4,
			InitialBalance:     100000,
			TransferWorkers:    4,
			TransfersPerWorker: 25,
			Amount:             1,
			Seed:               int64(i),
			MaxRetries:         10000,
		}
		if audits {
			p.AuditWorkers = 2
			p.AuditsPerWorker = 10
		}
		if _, err := sim.RunBank(sys, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5AuditLocking(b *testing.B) { benchBank(b, sim.KindCommut, true) }
func BenchmarkE5AuditMVCC(b *testing.B)    { benchBank(b, sim.KindMVCC, true) }
func BenchmarkE5AuditHybrid(b *testing.B)  { benchBank(b, sim.KindHybrid, true) }

// --- F2: observability overhead ------------------------------------------
//
// The same E5-style workload with the event tracer off (the default: every
// instrumented site pays one atomic load) and on (events land in the ring).
// Comparing the two sub-benchmarks bounds the tracer's hot-path cost; the
// acceptance bar is <5% for the disabled path.
func BenchmarkF2ObsTraceOff(b *testing.B) {
	obs.Default.Tracer().Disable()
	benchBank(b, sim.KindCommut, true)
}

func BenchmarkF2ObsTraceOn(b *testing.B) {
	obs.Default.Tracer().Enable()
	defer obs.Default.Tracer().Disable()
	benchBank(b, sim.KindCommut, true)
}

func BenchmarkE9LockingAudit(b *testing.B) { benchBank(b, sim.KindEscrow, true) }
func BenchmarkE9HybridAudit(b *testing.B)  { benchBank(b, sim.KindHybrid, true) }

// --- E6: skewed static timestamps ----------------------------------------

func benchSkew(b *testing.B, kind sim.Kind, skew int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(sim.Config{Kind: kind, Skew: skew, Seed: int64(i + 1)}, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunBank(sys, sim.BankParams{
			Accounts:           2,
			InitialBalance:     100000,
			TransferWorkers:    4,
			TransfersPerWorker: 10,
			Amount:             1,
			Seed:               int64(i),
			BalanceCheck:       true,
			MaxRetries:         10000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6SkewStatic0(b *testing.B)  { benchSkew(b, sim.KindMVCC, 0) }
func BenchmarkE6SkewStatic8(b *testing.B)  { benchSkew(b, sim.KindMVCC, 8) }
func BenchmarkE6SkewStatic32(b *testing.B) { benchSkew(b, sim.KindMVCC, 32) }
func BenchmarkE6SkewDynamic(b *testing.B)  { benchSkew(b, sim.KindCommut, 0) }

// --- E7: single-account contention by guard ------------------------------

func benchContention(b *testing.B, kind sim.Kind) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(sim.Config{Kind: kind}, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunBank(sys, sim.BankParams{
			Accounts:           1,
			InitialBalance:     1 << 40,
			TransferWorkers:    4,
			TransfersPerWorker: 25,
			Amount:             1,
			Seed:               int64(i),
			MaxRetries:         10000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7RW2PL(b *testing.B)  { benchContention(b, sim.KindRW2PL) }
func BenchmarkE7Commut(b *testing.B) { benchContention(b, sim.KindCommut) }
func BenchmarkE7Exact(b *testing.B)  { benchContention(b, sim.KindExact) }
func BenchmarkE7Escrow(b *testing.B) { benchContention(b, sim.KindEscrow) }

// --- Hotpath: commit throughput with recording enabled --------------------
//
// The runtime's hot path: a transfer-only workload with no think time and
// history recording ENABLED, swept across 1/4/16 workers. Three
// configurations bracket the runtime's serial sections: plain dynamic
// atomicity (event recording + registry), dynamic with an in-memory
// write-ahead log (the group-commit path), and hybrid (commit-timestamp
// ordering). One op is one batch of hotTransfers transfers per worker on a
// fresh system.
//
//	go test -run '^$' -bench Hotpath .

const (
	hotAccounts  = 16
	hotTransfers = 200
)

func BenchmarkHotpath(b *testing.B) {
	for _, v := range []struct {
		name string
		kind sim.Kind
		wal  bool
	}{
		{"commut", sim.KindCommut, false},
		{"commut+wal", sim.KindCommut, true},
		{"hybrid", sim.KindHybrid, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			for _, workers := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					var commits int64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						cfg := sim.Config{Kind: v.kind, Record: true}
						if v.wal {
							cfg.WAL = &recovery.Disk{}
						}
						sys, err := sim.NewSystem(cfg, hotAccounts, false)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						if _, err := sim.RunBank(sys, sim.BankParams{
							Accounts:           hotAccounts,
							InitialBalance:     1_000_000_000,
							TransferWorkers:    workers,
							TransfersPerWorker: hotTransfers,
							Amount:             1,
							Seed:               int64(i),
						}); err != nil {
							b.Fatal(err)
						}
						n, _ := sys.Manager.Stats()
						commits += n
					}
					b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
				})
			}
		})
	}
}

// --- E8/F1: the queue interleaving and the scheduler model ---------------

func BenchmarkE8QueueExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		det := locking.NewDetector()
		o, err := locking.New(locking.Config{
			ID:       "q",
			Type:     adts.Queue(),
			Guard:    locking.ExactGuard{},
			Detector: det,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := &cc.TxnInfo{ID: "a", Seq: 1}
		bb := &cc.TxnInfo{ID: "b", Seq: 2}
		c := &cc.TxnInfo{ID: "c", Seq: 3}
		for _, step := range []struct {
			t *cc.TxnInfo
			v int64
		}{{a, 1}, {bb, 1}, {a, 2}, {bb, 2}} {
			if _, err := o.Invoke(step.t, spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(step.v)}); err != nil {
				b.Fatal(err)
			}
		}
		o.Commit(a, histories.TSNone)
		o.Commit(bb, histories.TSNone)
		for k := 0; k < 4; k++ {
			if _, err := o.Invoke(c, spec.Invocation{Op: adts.OpDequeue}); err != nil {
				b.Fatal(err)
			}
		}
		o.Commit(c, histories.TSNone)
	}
}

func BenchmarkF1SchedulerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		storage := sched.NewStorage(adts.QueueSpec{})
		s, err := sched.New(storage, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, step := range []struct {
			t histories.ActivityID
			v int64
		}{{"a", 1}, {"b", 1}, {"a", 2}, {"b", 2}} {
			if _, err := s.Submit(step.t, spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(step.v)}); err != nil {
				b.Fatal(err)
			}
		}
		s.Commit("a")
		s.Commit("b")
		for k := 0; k < 4; k++ {
			if _, err := s.Submit("c", spec.Invocation{Op: adts.OpDequeue}); err != nil {
				b.Fatal(err)
			}
		}
		s.Commit("c")
	}
}

// --- A1: intentions lists vs undo logs under abort-heavy load ------------

func benchRecovery(b *testing.B, inPlace bool) {
	b.Helper()
	det := locking.NewDetector()
	o, err := locking.New(locking.Config{
		ID:            "a",
		Type:          adts.Account(),
		Guard:         locking.TableGuard{Conflicts: adts.AccountConflicts},
		Detector:      det,
		UpdateInPlace: inPlace,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := &cc.TxnInfo{ID: "seed", Seq: 0}
	if _, err := o.Invoke(seed, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1 << 30)}); err != nil {
		b.Fatal(err)
	}
	o.Commit(seed, histories.TSNone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("t%d", i)), Seq: int64(i + 1)}
		for k := 0; k < 4; k++ {
			if _, err := o.Invoke(txn, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)}); err != nil {
				b.Fatal(err)
			}
		}
		if i%2 == 0 {
			o.Abort(txn) // abort-heavy: half the transactions roll back
		} else {
			o.Commit(txn, histories.TSNone)
		}
	}
}

func BenchmarkA1Intentions(b *testing.B) { benchRecovery(b, false) }
func BenchmarkA1UndoLog(b *testing.B)    { benchRecovery(b, true) }

// --- A2: deadlock detection vs timeouts ----------------------------------

func benchDeadlockHandling(b *testing.B, timeout bool) {
	b.Helper()
	cfg := sim.Config{Kind: sim.KindCommut}
	if timeout {
		cfg.WaitTimeout = 2e6 // 2ms
	}
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(cfg, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunBank(sys, sim.BankParams{
			Accounts:           2,
			InitialBalance:     100000,
			TransferWorkers:    4,
			TransfersPerWorker: 10,
			Amount:             1,
			Seed:               int64(i),
			MaxRetries:         10000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA2Detect(b *testing.B)  { benchDeadlockHandling(b, false) }
func BenchmarkA2Timeout(b *testing.B) { benchDeadlockHandling(b, true) }

// --- A3: argument-aware vs name-only conflict tables on the set ----------

func benchSetGuard(b *testing.B, conflicts func(p, q spec.Invocation) bool) {
	b.Helper()
	det := locking.NewDetector()
	o, err := locking.New(locking.Config{
		ID:       "s",
		Type:     adts.IntSet(),
		Guard:    locking.TableGuard{Conflicts: conflicts},
		Detector: det,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// Two interleaved transactions on distinct elements: the argument-aware
	// table grants both concurrently, the name-only table serialises them.
	for i := 0; i < b.N; i++ {
		t1 := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("p%d", i)), Seq: int64(2*i + 1)}
		t2 := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("q%d", i)), Seq: int64(2*i + 2)}
		if _, err := o.Invoke(t1, spec.Invocation{Op: adts.OpInsert, Arg: value.Int(1)}); err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := o.Invoke(t2, spec.Invocation{Op: adts.OpInsert, Arg: value.Int(2)})
			done <- err
		}()
		o.Commit(t1, histories.TSNone)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		o.Commit(t2, histories.TSNone)
	}
}

func BenchmarkA3ArgAware(b *testing.B) { benchSetGuard(b, adts.IntSetConflicts) }
func BenchmarkA3NameOnly(b *testing.B) { benchSetGuard(b, adts.IntSetConflictsNameOnly) }

// --- E10: hybrid well-formedness and checking ----------------------------

func BenchmarkE10HybridCheck(b *testing.B) {
	h := recordedBankHistoryHybrid(b)
	ck := bankChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.WellFormedHybrid(); err != nil {
			b.Fatal(err)
		}
		if err := ck.HybridAtomic(h); err != nil {
			b.Fatal(err)
		}
	}
}

func recordedBankHistoryHybrid(b *testing.B) histories.History {
	b.Helper()
	return recordedBankHistory(b, sim.KindHybrid)
}

// --- recovery bench: WAL restart ------------------------------------------

func BenchmarkRestartFromWAL(b *testing.B) {
	disk := &recovery.Disk{}
	for i := 0; i < 100; i++ {
		disk.Append(recovery.Record{
			Kind:   recovery.RecordIntentions,
			Txn:    histories.ActivityID(fmt.Sprintf("t%d", i)),
			Object: "a",
			Calls:  []spec.Call{{Inv: spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(1)}, Result: value.Unit()}},
		})
		disk.Append(recovery.Record{Kind: recovery.RecordCommit, Txn: histories.ActivityID(fmt.Sprintf("t%d", i))})
	}
	specs := map[histories.ObjectID]spec.SerialSpec{"a": adts.AccountSpec{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recovery.Restart(disk, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plumbing -------------------------------------------------------------

func findPaperSeq(b *testing.B, name string) paper.Sequence {
	b.Helper()
	for _, ps := range paper.Sequences {
		if ps.Name == name {
			return ps
		}
	}
	b.Fatalf("no paper sequence %q", name)
	return paper.Sequence{}
}

// BenchmarkMVCCLogCompaction measures the effect of version-log compaction
// (Reed's truncation) on a long single-object run.
func BenchmarkMVCCLogCompaction(b *testing.B) {
	for _, compact := range []int{-1, 64} {
		name := "off"
		if compact > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			o, err := mvcc.New(mvcc.Config{ID: "s", Spec: adts.IntSetSpec{}, CompactAfter: compact})
			if err != nil {
				b.Fatal(err)
			}
			var src clock.Source
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := &cc.TxnInfo{ID: histories.ActivityID(fmt.Sprintf("t%d", i)), TS: src.Next()}
				if _, err := o.Invoke(txn, spec.Invocation{Op: adts.OpInsert, Arg: value.Int(int64(i % 8))}); err != nil {
					b.Fatal(err)
				}
				o.Commit(txn, histories.TSNone)
			}
		})
	}
}

// --- A4: FIFO queue vs semiqueue (nondeterminism buys concurrency) -------

func benchQueueWorkload(b *testing.B, semiQueue bool, kind sim.Kind) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(sim.Config{Kind: kind, SemiQueue: semiQueue}, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunQueue(sys, sim.QueueParams{
			Producers:        2,
			Consumers:        2,
			ItemsPerProducer: 16,
			Seed:             int64(i),
			MaxRetries:       10000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA4FIFOQueue(b *testing.B) { benchQueueWorkload(b, false, sim.KindExact) }
func BenchmarkA4SemiQueue(b *testing.B) { benchQueueWorkload(b, true, sim.KindExact) }

// --- E4b: data-dependent vs classical validation under static atomicity --

func BenchmarkE4bMVCCDataDependent(b *testing.B) { benchSkew(b, sim.KindMVCC, 4) }
func BenchmarkE4bMVCCClassical(b *testing.B)     { benchSkew(b, sim.KindMVCCClassical, 4) }
