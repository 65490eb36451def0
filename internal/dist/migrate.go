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

// migPeer is the client side of one migration half: a route to the half's
// site and the migration transaction's leg there, so it pins the site's
// epoch before the first stateful message and resends under the same rule
// as RemoteResource (see leg), over the unreliable network layer.
type migPeer struct {
	route
	leg
}

// newMigPeer pins the site's epoch and returns the peer. A handshake
// failure is a retryable outage: no migration message has been sent, so
// nothing needs undoing.
func newMigPeer(net *Network, origin, site SiteID, obj histories.ObjectID) (*migPeer, error) {
	p := &migPeer{route: route{net: net, origin: origin, site: site, obj: obj}}
	if _, err := p.pin(&p.leg); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *migPeer) export(txn *cc.TxnInfo) (migExport, error) {
	return send(&p.route, &p.leg, struct{}{}, func(s *Site, d delivery, _ struct{}) (migExport, error) {
		return s.handleMigrateExport(d, p.obj, txn)
	})
}

func (p *migPeer) stage(txn *cc.TxnInfo, exp migExport) error {
	_, err := send(&p.route, &p.leg, exp, func(s *Site, d delivery, exp migExport) (struct{}, error) {
		return struct{}{}, s.handleMigrateImport(d, p.obj, txn, exp)
	})
	return err
}

func (p *migPeer) prepare(txn *cc.TxnInfo, dir recovery.MigrateDir, ringv uint64) error {
	_, err := send(&p.route, &p.leg, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handleMigratePrepare(d, p.obj, txn, dir, ringv)
	})
	return err
}

// commit delivers the commit decision; a failure is tolerated (a crashed
// or unreachable half redoes the hosting change from its log through the
// termination protocol and recovery).
func (p *migPeer) commit(txn *cc.TxnInfo) {
	_, _ = send(&p.route, &p.leg, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handleMigrateCommit(d, p.obj, txn)
	})
}

// abort delivers the abort; a failure is tolerated (presumed abort, and
// the abandoned-transaction sweeper reclaims a leaked freeze or staged
// copy).
func (p *migPeer) abort(txn *cc.TxnInfo) {
	_, _ = send(&p.route, &p.leg, struct{}{}, func(s *Site, d delivery, _ struct{}) (struct{}, error) {
		return struct{}{}, s.handleMigrateAbort(d, p.obj, txn)
	})
}
