package chaos

import (
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/conflict"
	"weihl83/internal/dist"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
)

// topology is everything a distributed mode builds differently: the
// network, the crashable coordinators behind the manager's tx.Coordinator,
// the sites, the manager with its resources, and the partition schedule.
// runCluster drives and checks every mode the same way.
type topology struct {
	net    *dist.Network
	coords []*dist.Coordinator
	sites  map[dist.SiteID]*dist.Site
	m      *tx.Manager
	// cluster is the placement layer of the churn and replication modes;
	// nil in the two-site mode.
	cluster *dist.Cluster
	// homeOf names the site an object currently lives at.
	homeOf func(histories.ObjectID) (dist.SiteID, bool)
	// The partition driver consults partition on its cadence and, each time
	// it fires, opens the next split in rotation for a window. No splits,
	// no driver.
	partition fault.Point
	splits    [][][]dist.SiteID
}

// placement is every mode's starting layout and guard spread. acct0
// exercises the full tiered cascade under faults; acct1 keeps the
// standalone escrow guard covered, and the queue the plain table guard —
// and all three travel through migrations in churn mode. The queue rides
// the table guard for a second reason: it grants two enqueues concurrently
// only when they carry the same value, where their order cannot show.
// Under the cascade (or exact) guard two transactions may prepare enqueues
// of different values in one order and commit in the other, and a site
// redoes a committed transaction at the log position of its prepare, not
// of its commit — restart would rebuild a queue no live transaction saw
// (dist.TestSiteRedoOrderHole, DESIGN §13). The committed seed matrices
// stay clear of that hole until recovery gains a per-object commit point.
var placement = []struct {
	obj   histories.ObjectID
	site  dist.SiteID
	typ   func() adts.Type
	guard func(adts.Type) locking.Guard
}{
	{"acct0", "A", adts.Account, func(t adts.Type) locking.Guard { return conflict.ForType(t) }},
	{"acct1", "B", adts.Account, func(adts.Type) locking.Guard { return locking.EscrowGuard{} }},
	{"queue", "B", adts.Queue, func(t adts.Type) locking.Guard { return locking.TableGuard{Conflicts: t.Conflicts} }},
}

// build creates the network, the coordinators and the sites, and places
// the objects.
func build(cfg Config, inj *fault.Injector, sink cc.EventSink, coordIDs, siteIDs []dist.SiteID) (*topology, error) {
	t := &topology{net: dist.NewNetwork(0, 0, cfg.Seed), sites: make(map[dist.SiteID]*dist.Site)}
	t.net.SetInjector(inj)
	t.net.SetRPC(300*time.Microsecond, 7)
	for _, id := range coordIDs {
		c, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: id, Network: t.net, Injector: inj})
		if err != nil {
			return nil, err
		}
		t.coords = append(t.coords, c)
	}
	for _, id := range siteIDs {
		s, err := dist.NewSite(dist.SiteConfig{
			ID:           id,
			Network:      t.net,
			Coordinators: coordIDs,
			Sink:         sink,
			Injector:     inj,
			WaitTimeout:  2 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		t.sites[id] = s
	}
	for _, p := range placement {
		if err := t.sites[p.site].AddObject(p.obj, p.typ(), p.guard); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// manage builds the manager deciding through coord and registers one
// resource per object.
func (t *topology) manage(cfg Config, coord tx.Coordinator, router tx.ReadRouter, resource func(histories.ObjectID) cc.Resource) error {
	m, err := tx.NewManager(tx.Config{
		Property:    tx.Dynamic,
		Coordinator: coord,
		ReadRouter:  router,
		MaxRetries:  10000,
		Backoff:     tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: cfg.Seed + 1},
	})
	if err != nil {
		return err
	}
	for _, obj := range objects {
		if err := m.Register(resource(obj)); err != nil {
			return err
		}
	}
	t.m = m
	return nil
}

// distTopology is the two-site mode: sites A and B, one crashable
// coordinator C with its own decision log, and objects that stay where
// placement put them. The client's messages originate at C's network
// position, so an open partition cuts transactions off from the sites on
// the far side; fault.NetPartition rotates through the three
// two-against-one splits.
func distTopology(cfg Config, inj *fault.Injector, sink cc.EventSink) (*topology, error) {
	t, err := build(cfg, inj, sink, []dist.SiteID{"C"}, []dist.SiteID{"A", "B"})
	if err != nil {
		return nil, err
	}
	homes := make(map[histories.ObjectID]dist.SiteID)
	for _, p := range placement {
		homes[p.obj] = p.site
	}
	t.homeOf = func(obj histories.ObjectID) (dist.SiteID, bool) {
		home, ok := homes[obj]
		return home, ok
	}
	if err := t.manage(cfg, t.coords[0], nil, func(obj histories.ObjectID) cc.Resource {
		return dist.NewRemoteResourceAt(t.net, "C", homes[obj], obj)
	}); err != nil {
		return nil, err
	}
	if cfg.PartitionProb > 0 {
		t.partition = fault.NetPartition
		t.splits = [][][]dist.SiteID{{{"C", "A"}, {"B"}}, {{"C", "B"}, {"A"}}, {{"A", "B"}, {"C"}}}
	}
	return t, nil
}

// clusterTopology builds four sites A–D and a two-member coordinator pool
// C0/C1 behind a placement ring the joined sites form, replicated at
// factor (1 leaves replication off), with placement-routed clients.
func clusterTopology(cfg Config, inj *fault.Injector, sink cc.EventSink, joined []dist.SiteID, factor int) (*topology, error) {
	t, err := build(cfg, inj, sink, []dist.SiteID{"C0", "C1"}, []dist.SiteID{"A", "B", "C", "D"})
	if err != nil {
		return nil, err
	}
	pool, err := dist.NewPool(t.coords...)
	if err != nil {
		return nil, err
	}
	t.cluster = dist.NewCluster(t.net, pool, 0, inj)
	t.homeOf = t.cluster.HomeOf
	for _, id := range joined {
		if err := t.cluster.Join(id); err != nil {
			return nil, err
		}
	}
	if err := t.cluster.EnableReplication(factor); err != nil {
		return nil, err
	}
	if err := t.manage(cfg, pool, t.cluster.ReadRouter(), func(obj histories.ObjectID) cc.Resource {
		return t.cluster.Resource(obj, "")
	}); err != nil {
		t.cluster.Close()
		return nil, err
	}
	return t, nil
}

// churnTopology is the elastic-cluster mode: A–C form the ring and D is
// the churn site the churn driver joins and leaves mid-run. It has no
// partition driver: fault.MigratePartition opens targeted windows inside
// migrations instead.
func churnTopology(cfg Config, inj *fault.Injector, sink cc.EventSink) (*topology, error) {
	return clusterTopology(cfg, inj, sink, []dist.SiteID{"A", "B", "C"}, 1)
}

// replicationTopology is the replica-group mode: all four sites joined,
// every object replicated at replicationFactor (leader plus ring-walk
// followers), and fault.ReplPartition isolating one site at a time. The
// replicator's delivery plane (an external control plane, origin "")
// rides through a partition; what it stresses is the 2PC traffic of a
// dual-role site — leader for one object, follower for another.
func replicationTopology(cfg Config, inj *fault.Injector, sink cc.EventSink) (*topology, error) {
	t, err := clusterTopology(cfg, inj, sink, []dist.SiteID{"A", "B", "C", "D"}, replicationFactor)
	if err != nil {
		return nil, err
	}
	if cfg.ReplicaPartitionProb > 0 {
		t.partition = fault.ReplPartition
		t.splits = [][][]dist.SiteID{{{"A"}}, {{"B"}}, {{"C"}}, {{"D"}}}
	}
	return t, nil
}
