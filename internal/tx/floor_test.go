package tx_test

import (
	"testing"

	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// floorProbe is a resource that records the prepare floor each Prepare
// sees, the newest timestamp the clock had issued by then, and the commit
// timestamp.
type floorProbe struct {
	id       histories.ObjectID
	src      *clock.Source
	floors   []histories.Timestamp
	issued   []histories.Timestamp
	commitTS histories.Timestamp
}

func (p *floorProbe) ObjectID() histories.ObjectID { return p.id }
func (p *floorProbe) Invoke(*cc.TxnInfo, spec.Invocation) (value.Value, error) {
	return value.Unit(), nil
}
func (p *floorProbe) Prepare(txn *cc.TxnInfo) error {
	p.floors = append(p.floors, txn.PrepareFloor)
	p.issued = append(p.issued, p.src.Now())
	return nil
}
func (p *floorProbe) Commit(_ *cc.TxnInfo, ts histories.Timestamp) { p.commitTS = ts }
func (p *floorProbe) Abort(*cc.TxnInfo)                            {}

// TestHybridUpdateDrawsPrepareFloor: a hybrid update draws its prepare
// floor from the clock before its first Prepare, every resource sees the
// same floor, and the commit timestamp is above it — with and without a
// WAL. A read-only transaction draws none.
func TestHybridUpdateDrawsPrepareFloor(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		name := "memory"
		if withWAL {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			var src clock.Source
			cfg := tx.Config{Property: tx.Hybrid, Clock: &src}
			var disk *recovery.Disk
			if withWAL {
				disk = &recovery.Disk{}
				cfg.WAL = disk
			}
			m, err := tx.NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x, y := &floorProbe{id: "x", src: &src}, &floorProbe{id: "y", src: &src}
			for _, r := range []cc.Resource{x, y} {
				if err := m.Register(r); err != nil {
					t.Fatal(err)
				}
			}
			reader := m.BeginReadOnly()
			txn := m.Begin()
			for _, id := range []histories.ObjectID{"x", "y"} {
				if _, err := txn.Invoke(id, "op", value.Nil()); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			floor := x.floors[0]
			if floor == histories.TSNone || floor <= reader.Timestamp() {
				t.Fatalf("floor %d: want one drawn after the reader's timestamp %d", floor, reader.Timestamp())
			}
			if x.issued[0] != floor {
				t.Errorf("clock had issued up to %d at the first prepare, floor %d: floor not the last draw before it", x.issued[0], floor)
			}
			if len(y.floors) != 1 || y.floors[0] != floor {
				t.Errorf("second resource saw floors %v, want [%d]", y.floors, floor)
			}
			if x.commitTS <= floor || y.commitTS != x.commitTS {
				t.Errorf("commit timestamps %d/%d, want one above the floor %d", x.commitTS, y.commitTS, floor)
			}
			if withWAL {
				var logged histories.Timestamp
				for _, r := range disk.Records() {
					if r.Kind == recovery.RecordCommit {
						logged = r.TS
					}
				}
				if logged != x.commitTS {
					t.Errorf("logged commit timestamp %d, installed %d", logged, x.commitTS)
				}
			}
			if _, err := reader.Invoke("x", "op", value.Nil()); err != nil {
				t.Fatal(err)
			}
			if err := reader.Commit(); err != nil {
				t.Fatal(err)
			}
			if len(x.floors) != 2 || x.floors[1] != histories.TSNone {
				t.Errorf("floors at x %v: want the read-only transaction's to be 0", x.floors)
			}
		})
	}
}
