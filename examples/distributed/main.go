// Distributed: two sites, cross-site transfers, crashes, and recovery.
//
// The paper's setting is distributed (the Argus project): objects live at
// different sites, transactions span them via two-phase commit, and
// recoverability must hold through site crashes. This example hosts one
// escrow account per site with a crashable coordinator, runs cross-site
// transfers over a simulated network, then crashes a participant after it
// voted yes — and crashes the coordinator too, so the recovering
// participant cannot ask it for the outcome and instead learns the commit
// from its peer through the cooperative termination protocol.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/dist"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

func main() {
	network := dist.NewNetwork(100*time.Microsecond, 500*time.Microsecond, 1)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: "C", Network: network})
	if err != nil {
		log.Fatal(err)
	}

	siteA, err := dist.NewSite(dist.SiteConfig{ID: "A", Network: network, Coordinators: []dist.SiteID{"C"}})
	if err != nil {
		log.Fatal(err)
	}
	siteB, err := dist.NewSite(dist.SiteConfig{ID: "B", Network: network, Coordinators: []dist.SiteID{"C"}})
	if err != nil {
		log.Fatal(err)
	}
	if err := siteA.AddObject("savings", adts.Account(), nil); err != nil {
		log.Fatal(err)
	}
	if err := siteB.AddObject("checking", adts.Account(), nil); err != nil {
		log.Fatal(err)
	}

	manager, err := tx.NewManager(tx.Config{
		Property:    tx.Dynamic,
		Coordinator: coord,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []cc.Resource{
		dist.NewRemoteResource(network, "A", "savings"),
		dist.NewRemoteResource(network, "B", "checking"),
	} {
		if err := manager.Register(r); err != nil {
			log.Fatal(err)
		}
	}

	// Seed and transfer across sites.
	if err := manager.Run(func(t *tx.Txn) error {
		_, err := t.Invoke("savings", adts.OpDeposit, value.Int(100))
		return err
	}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := manager.Run(func(t *tx.Txn) error {
			if _, err := t.Invoke("savings", adts.OpWithdraw, value.Int(10)); err != nil {
				return err
			}
			_, err := t.Invoke("checking", adts.OpDeposit, value.Int(10))
			return err
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("after 3 cross-site transfers:")
	printBalances(siteA, siteB)

	// Drive one two-phase commit by hand: crash B after it prepares, then
	// crash the coordinator after it logged the decision — B must recover
	// the outcome from its peer A.
	txn := manager.Begin()
	info := &cc.TxnInfo{ID: txn.ID(), Participants: []string{"A", "B"}}
	ra := dist.NewRemoteResource(network, "A", "savings")
	rb := dist.NewRemoteResource(network, "B", "checking")
	if _, err := ra.Invoke(info, spec.Invocation{Op: adts.OpWithdraw, Arg: value.Int(10)}); err != nil {
		log.Fatal(err)
	}
	if _, err := rb.Invoke(info, spec.Invocation{Op: adts.OpDeposit, Arg: value.Int(10)}); err != nil {
		log.Fatal(err)
	}
	coord.Begin(txn.ID())
	if err := ra.Prepare(info); err != nil {
		log.Fatal(err)
	}
	if err := rb.Prepare(info); err != nil {
		log.Fatal(err)
	}
	if err := coord.Decide(txn.ID(), true); err != nil { // the commit point
		log.Fatal(err)
	}
	siteB.Crash()
	fmt.Println("\nsite B crashed after voting yes; delivering commits...")
	ra.Commit(info, histories.TSNone)
	rb.Commit(info, histories.TSNone) // lost: B is down
	coord.Crash()
	fmt.Println("coordinator crashed too: B cannot ask it for the outcome")

	if err := siteB.Recover(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("site B recovered: in-doubt transaction resolved by peer A's commit record")
	printBalances(siteA, siteB)
}

func printBalances(a, b *dist.Site) {
	sa, err := a.CommittedStateKey("savings")
	if err != nil {
		log.Fatal(err)
	}
	sb, err := b.CommittedStateKey("checking")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  savings@A=%s checking@B=%s\n", sa, sb)
}
