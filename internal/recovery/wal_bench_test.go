package recovery

import (
	"fmt"
	"os"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Benchmark ladders for the file WAL's codec, append path and recovery
// scan. Each runs in well under a second at -benchtime=1x, so `make
// bench-smoke` exercises them all.
//
//	go test -run '^$' -bench 'Record|AppendBatch|OpenFileWAL' -benchmem ./internal/recovery

// noSyncFS is osFS without fsync: it measures what the WAL itself does —
// encode, frame, write, scan, decode — without the device's flush latency.
type noSyncFS struct{ osFS }

type noSyncFile struct{ walFile }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenAppend(path string) (walFile, int64, error) {
	f, size, err := fs.osFS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return noSyncFile{f}, size, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

const benchAccounts = 4096

func benchSpecs() map[histories.ObjectID]spec.SerialSpec {
	specs := make(map[histories.ObjectID]spec.SerialSpec, benchAccounts)
	for i := 0; i < benchAccounts; i++ {
		specs[histories.ObjectID(fmt.Sprintf("acct%d", i))] = adts.AccountSpec{}
	}
	return specs
}

// transferGroup is the group of records one committed transfer logs: the
// withdrawal's and the deposit's intentions, then the commit.
func transferGroup(n int) []Record {
	txn := histories.ActivityID(fmt.Sprintf("t%d", n))
	from := histories.ObjectID(fmt.Sprintf("acct%d", n%benchAccounts))
	to := histories.ObjectID(fmt.Sprintf("acct%d", (n*7+1)%benchAccounts))
	amt := value.Int(int64(1 + n%100))
	return []Record{
		{Kind: RecordIntentions, Txn: txn, Object: from, Calls: []spec.Call{call(adts.OpWithdraw, amt, value.Unit())}},
		{Kind: RecordIntentions, Txn: txn, Object: to, Calls: []spec.Call{call(adts.OpDeposit, amt, value.Unit())}},
		OutcomeRecord(txn, true),
	}
}

func transferBatch(first, groups int) [][]Record {
	batch := make([][]Record, groups)
	for i := range batch {
		batch[i] = transferGroup(first + i)
	}
	return batch
}

// benchRecordKinds is one record of every kind, shaped as the bank
// workloads write them; the checkpoint snapshots 64 accounts.
func benchRecordKinds() []struct {
	name string
	rec  Record
} {
	g := transferGroup(12345)
	cp := Record{Kind: RecordCheckpoint, States: map[histories.ObjectID]spec.State{}, Decided: map[histories.ActivityID]bool{}}
	for i := 0; i < 64; i++ {
		cp.States[histories.ObjectID(fmt.Sprintf("acct%d", i))] = adts.AccountState(1_000_000 + i)
		cp.Decided[histories.ActivityID(fmt.Sprintf("t%d", i))] = true
	}
	return []struct {
		name string
		rec  Record
	}{
		{"intentions", g[0]},
		{"commit", g[2]},
		{"abort", OutcomeRecord("t12345", false)},
		{"installed", Record{Kind: RecordInstalled, Txn: "t12345", Object: "acct42"}},
		{"checkpoint", cp},
	}
}

var (
	benchBytes  []byte
	benchRecord Record
)

func BenchmarkRecordEncode(b *testing.B) {
	specs := benchSpecs()
	for _, k := range benchRecordKinds() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendRecord(buf[:0], k.rec, specs); err != nil {
					b.Fatal(err)
				}
			}
			benchBytes = buf
			b.ReportMetric(float64(len(buf)), "bytes/record")
		})
	}
}

func BenchmarkRecordDecode(b *testing.B) {
	specs := benchSpecs()
	for _, k := range benchRecordKinds() {
		b.Run(k.name, func(b *testing.B) {
			payload, err := encodeRecord(k.rec, specs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchRecord, err = decodeRecord(payload, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendBatch: one op is one AppendBatch of transfer groups — the
// group-commit leader's force — over a file system that skips fsync.
func BenchmarkAppendBatch(b *testing.B) {
	specs := benchSpecs()
	for _, groups := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			batch := transferBatch(1, groups)
			var w *FileWAL
			fresh := func() {
				if w != nil {
					w.Close()
					os.RemoveAll(w.Dir())
				}
				dir, err := os.MkdirTemp(b.TempDir(), "wal-")
				if err != nil {
					b.Fatal(err)
				}
				if w, err = OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: noSyncFS{}}); err != nil {
					b.Fatal(err)
				}
			}
			fresh()
			defer func() { w.Close() }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.Len() > 50_000 {
					// Bound the in-memory mirror on long runs.
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				for _, err := range w.AppendBatch(batch) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*groups)/b.Elapsed().Seconds(), "groups/s")
		})
	}
}

// BenchmarkOpenFileWAL: one op is a cold open — read, CRC-check and decode
// every segment — of a log of transfer records.
func BenchmarkOpenFileWAL(b *testing.B) {
	specs := benchSpecs()
	for _, records := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: noSyncFS{}})
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; w.Len() < records; n += 64 {
				for _, err := range w.AppendBatch(transferBatch(n, 64)) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs, FS: noSyncFS{}})
				if err != nil {
					b.Fatal(err)
				}
				w.Close()
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
