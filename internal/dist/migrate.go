package dist

import (
	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
)

// Observability for shard migrations.
var (
	obsMigrations       = obs.Default.Counter("dist.migrate.commits")
	obsMigrationAborts  = obs.Default.Counter("dist.migrate.aborts")
	obsMigrationOrphans = obs.Default.Counter("dist.migrate.orphans")
)

// migPeer is the client leg of one migration half: it pins the target
// site's epoch with the handshake before the first stateful message (the
// same exactly-once discipline RemoteResource follows) and ships the
// migration messages over the unreliable network layer.
type migPeer struct {
	net    *Network
	origin SiteID
	site   SiteID
	obj    histories.ObjectID
	epoch  uint64
}

// newMigPeer handshakes with the site and returns the pinned peer. A
// handshake failure is a retryable outage: no migration message has been
// sent, so nothing needs undoing.
func newMigPeer(net *Network, origin, site SiteID, obj histories.ObjectID) (*migPeer, error) {
	epoch, err := net.Hello(origin, site)
	if err != nil {
		return nil, err
	}
	return &migPeer{net: net, origin: origin, site: site, obj: obj, epoch: epoch}, nil
}

func (p *migPeer) export(txn *cc.TxnInfo) (migExport, error) {
	exp, err := call(p.net, p.origin, p.site, p.epoch, txn.ID, struct{}{}, func(s *Site, _ struct{}) (migExport, error) {
		return s.handleMigrateExport(p.obj, txn)
	})
	return exp, err
}

func (p *migPeer) stage(txn *cc.TxnInfo, exp migExport) error {
	_, err := call(p.net, p.origin, p.site, p.epoch, txn.ID, exp, func(s *Site, exp migExport) (struct{}, error) {
		return struct{}{}, s.handleMigrateImport(p.obj, txn, exp)
	})
	return err
}

func (p *migPeer) prepare(txn *cc.TxnInfo, dir recovery.MigrateDir, ringv uint64) error {
	type req struct{}
	_, err := call(p.net, p.origin, p.site, p.epoch, txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handleMigratePrepare(p.obj, txn, dir, ringv)
	})
	return err
}

// commit delivers the commit decision; a failure is tolerated (a crashed
// or unreachable half redoes the hosting change from its log through the
// termination protocol and recovery).
func (p *migPeer) commit(txn *cc.TxnInfo) {
	type req struct{}
	_, _ = call(p.net, p.origin, p.site, p.epoch, txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handleMigrateCommit(p.obj, txn)
	})
}

// abort delivers the abort; a failure is tolerated (presumed abort, and
// the abandoned-transaction sweeper reclaims a leaked freeze or staged
// copy).
func (p *migPeer) abort(txn *cc.TxnInfo) {
	type req struct{}
	_, _ = call(p.net, p.origin, p.site, p.epoch, txn.ID, req{}, func(s *Site, _ req) (struct{}, error) {
		return struct{}{}, s.handleMigrateAbort(p.obj, txn)
	})
}
