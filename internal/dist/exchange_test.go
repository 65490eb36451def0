package dist

import (
	"errors"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/fault"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// TestEveryMessageKindRidesOneExchange: the stateful call and the four
// idempotent queries cross the same unreliable round trip, so under each
// way a round trip can fail they report the same error class after the
// same number of attempts — and a stateful handler still runs at most once
// however often its request is retransmitted.
func TestEveryMessageKindRidesOneExchange(t *testing.T) {
	const retransmits = 2
	handlerRuns := 0
	kinds := []struct {
		name string
		send func(n *Network, epoch uint64) error
	}{
		{"call", func(n *Network, epoch uint64) error {
			_, err := call(n, "B", "A", epoch, "t1", struct{}{}, func(*Site, struct{}) (struct{}, error) {
				handlerRuns++
				return struct{}{}, nil
			})
			return err
		}},
		{"Hello", func(n *Network, _ uint64) error {
			_, err := n.Hello("B", "A")
			return err
		}},
		{"QueryHosting", func(n *Network, _ uint64) error {
			_, _, err := n.QueryHosting("B", "A", "acct0")
			return err
		}},
		{"QueryOutcome", func(n *Network, _ uint64) error {
			_, err := n.QueryOutcome("B", "A", "t1")
			return err
		}},
		{"QueryReplicaRead", func(n *Network, _ uint64) error {
			_, err := n.QueryReplicaRead("B", "A", "acct0", spec.Invocation{Op: adts.OpBalance}, 1)
			return err
		}},
	}
	failures := []struct {
		name    string
		arrange func(n *Network, a *Site, inj *fault.Injector)
		want    error
		runs    int // times the stateful call's handler executes
	}{
		{"site down", func(_ *Network, a *Site, _ *fault.Injector) { a.Crash() }, ErrSiteDown, 0},
		{"partitioned", func(n *Network, _ *Site, _ *fault.Injector) { n.Partition([]SiteID{"A"}) }, ErrPartitioned, 0},
		{"request dropped every time", func(_ *Network, _ *Site, inj *fault.Injector) {
			inj.Enable(fault.NetRequestDrop, fault.Rule{Prob: 1})
		}, ErrRPCTimeout, 0},
		{"reply dropped every time", func(_ *Network, _ *Site, inj *fault.Injector) {
			inj.Enable(fault.NetReplyDrop, fault.Rule{Prob: 1})
		}, ErrRPCTimeout, 1},
	}
	attempts := obs.Default.Counter("dist.rpc.attempts")
	for _, f := range failures {
		for _, k := range kinds {
			t.Run(f.name+"/"+k.name, func(t *testing.T) {
				inj := fault.New(1)
				n := NewNetwork(0, 0, 1)
				n.SetRPC(50*time.Microsecond, retransmits)
				n.SetInjector(inj)
				if _, err := NewCoordinator(CoordinatorConfig{ID: "C", Network: n}); err != nil {
					t.Fatal(err)
				}
				a, err := NewSite(SiteConfig{ID: "A", Network: n, Coordinators: []SiteID{"C"}})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.AddObject("acct0", adts.Account(), escrowGuard); err != nil {
					t.Fatal(err)
				}
				epoch := a.Epoch()
				f.arrange(n, a, inj)
				handlerRuns = 0
				before := attempts.Load()
				err = k.send(n, epoch)
				if !errors.Is(err, f.want) {
					t.Errorf("error = %v, want %v", err, f.want)
				}
				if got := attempts.Load() - before; got != retransmits+1 {
					t.Errorf("dist.rpc.attempts rose by %d, want %d", got, retransmits+1)
				}
				if k.name == "call" && handlerRuns != f.runs {
					t.Errorf("stateful handler ran %d times over %d deliveries, want %d", handlerRuns, retransmits+1, f.runs)
				}
			})
		}
	}
}
