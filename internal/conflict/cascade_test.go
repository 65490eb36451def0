package conflict

import (
	"errors"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// cascadeCounters are every counter the engine moves.
var cascadeCounters = func() []string {
	var names []string
	for _, stage := range []string{"name", "args", "summary", "exact"} {
		for _, kind := range []string{"commutes", "conflicts", "escalations"} {
			names = append(names, "cc.conflict.tier."+stage+"."+kind)
		}
	}
	return append(names, "cc.conflict.cache.hits", "cc.conflict.cache.misses", "cc.conflict.type_mismatch")
}()

func readCascadeCounters() map[string]int64 {
	m := make(map[string]int64, len(cascadeCounters))
	for _, n := range cascadeCounters {
		m[n] = obs.Default.Counter(n).Load()
	}
	return m
}

// cascadeStep is one decision asked of a type's engine, and where the
// cascade must resolve it.
type cascadeStep struct {
	name       string
	base       spec.State
	mine       []spec.Call
	cand       spec.Call
	others     [][]spec.Call
	invalidate bool // drop the decision cache before asking

	escalated []string // stages that pass the question on, in order
	decides   string   // the stage that answers; "" when the call errors
	granted   bool
	hit       bool  // the exact stage answers from its cache
	err       error // the error the call must surface
}

// TestCascadeStageCounters pins the cascade's observable surface: for
// fixed account, intset and queue decisions, which stage decides (by the
// per-stage counter deltas), the exact stage's cache hits and misses, and
// ErrTypeMismatch surfacing from the summary. Every counter the engine
// owns must move exactly as listed and no other.
func TestCascadeStageCounters(t *testing.T) {
	acct := spec.State(adts.AccountState(100))
	set := intSet(t, 3)
	queue := adts.QueueSpec{}.Init()
	ins := func(n int64) spec.Call { return call(adts.OpInsert, value.Int(n), value.Unit()) }
	del := func(n int64) spec.Call { return call(adts.OpDelete, value.Int(n), value.Unit()) }
	size := func(n int64) spec.Call { return call(adts.OpSize, value.Nil(), value.Int(n)) }
	enq := func(n int64) spec.Call { return call(adts.OpEnqueue, value.Int(n), value.Unit()) }
	deq := func(n int64) spec.Call { return call(adts.OpDequeue, value.Nil(), value.Int(n)) }
	unflippable := [][]spec.Call{{failedWithdraw(1_000_000)}}
	tables := []string{"name", "args"}
	withSummary := []string{"name", "args", "summary"}

	for _, c := range []struct {
		typ   adts.Type
		steps []cascadeStep
	}{
		{adts.Account(), []cascadeStep{
			{name: "deposits commute by name", base: acct, cand: deposit(1), others: [][]spec.Call{{deposit(2)}},
				decides: "name", granted: true},
			{name: "covered withdrawals", base: acct, cand: withdraw(3), others: [][]spec.Call{{withdraw(4)}, {withdraw(5)}},
				escalated: tables, decides: "summary", granted: true},
			{name: "unflippable failure", base: acct, cand: deposit(1), others: unflippable,
				escalated: withSummary, decides: "exact", granted: true},
			{name: "same question again", base: acct, cand: deposit(1), others: unflippable,
				escalated: withSummary, decides: "exact", granted: true, hit: true},
			{name: "after invalidation", base: acct, cand: deposit(1), others: unflippable, invalidate: true,
				escalated: withSummary, decides: "exact", granted: true},
			{name: "uncovered withdrawal", base: acct, cand: withdraw(60), others: [][]spec.Call{{withdraw(50)}},
				escalated: withSummary, decides: "exact"},
			{name: "set state under the account summary", base: set, cand: balance(0), others: [][]spec.Call{{deposit(1)}},
				escalated: tables, err: ErrTypeMismatch},
		}},
		{adts.IntSet(), []cascadeStep{
			{name: "inserts commute by name", base: set, cand: ins(1), others: [][]spec.Call{{ins(2)}},
				decides: "name", granted: true},
			{name: "distinct elements", base: set, cand: ins(1), others: [][]spec.Call{{del(2)}},
				escalated: []string{"name"}, decides: "args", granted: true},
			{name: "no-op insert beside size", base: set, cand: ins(3), others: [][]spec.Call{{size(1)}},
				escalated: tables, decides: "summary", granted: true},
			{name: "real insert beside size", base: set, cand: ins(7), others: [][]spec.Call{{size(1)}},
				escalated: withSummary, decides: "exact"},
		}},
		{adts.Queue(), []cascadeStep{
			{name: "equal enqueues", base: queue, cand: enq(1), others: [][]spec.Call{{enq(1)}},
				escalated: []string{"name"}, decides: "args", granted: true},
			{name: "paper interleaving", base: queue, mine: []spec.Call{enq(1), enq(2)}, cand: enq(2), others: [][]spec.Call{{enq(1), enq(2)}},
				escalated: tables, decides: "exact", granted: true},
			{name: "dequeue past an uncommitted enqueue", base: queue, cand: deq(1), others: [][]spec.Call{{enq(1)}},
				escalated: tables, decides: "exact"},
		}},
	} {
		e := ForType(c.typ)
		for _, s := range c.steps {
			t.Run(c.typ.Spec.Name()+"/"+s.name, func(t *testing.T) {
				if s.invalidate {
					e.InvalidateConflictCache()
				}
				before := readCascadeCounters()
				ok, err := e.Allowed(s.base, s.mine, s.cand, s.others)
				after := readCascadeCounters()
				if !errors.Is(err, s.err) || (s.err == nil && err != nil) {
					t.Fatalf("err = %v, want %v", err, s.err)
				}
				if ok != s.granted {
					t.Errorf("granted = %t, want %t", ok, s.granted)
				}
				want := map[string]int64{}
				for _, st := range s.escalated {
					want["cc.conflict.tier."+st+".escalations"] = 1
				}
				switch {
				case s.decides != "" && s.granted:
					want["cc.conflict.tier."+s.decides+".commutes"] = 1
				case s.decides != "":
					want["cc.conflict.tier."+s.decides+".conflicts"] = 1
				default:
					want["cc.conflict.type_mismatch"] = 1
				}
				if s.decides == "exact" {
					if s.hit {
						want["cc.conflict.cache.hits"] = 1
					} else {
						want["cc.conflict.cache.misses"] = 1
					}
				}
				for _, n := range cascadeCounters {
					if d := after[n] - before[n]; d != want[n] {
						t.Errorf("%s moved by %d, want %d", n, d, want[n])
					}
				}
			})
		}
	}
}
