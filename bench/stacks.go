package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"weihl83"
	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/client"
	"weihl83/internal/clock"
	"weihl83/internal/conflict"
	"weihl83/internal/dist"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/service"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// seedBalance is what every account of every workload starts with, so one
// conservation oracle serves them all.
const seedBalance = 1_000_000

// stack is one assembled system under test, as the drivers see it.
type stack struct {
	// exec runs one generated operation to its commit ack or final failure.
	exec func(w *worker, o *op) error
	// balances reads every account's committed balance once load stopped.
	balances func() ([]int64, error)
	// check runs the stack's own end-of-run oracles (nil: none).
	check func() error
	// quiesce waits for background work the window left behind (nil: none).
	quiesce func() error
	close   func()
}

// runner is the transaction entry point both the facade (weihl83.System)
// and the runtime (tx.Manager) offer; weihl83.Txn is tx.Txn.
type runner interface {
	Run(fn func(*tx.Txn) error) error
	RunReadOnly(fn func(*tx.Txn) error) error
}

func accountIDs(n int) []histories.ObjectID {
	ids := make([]histories.ObjectID, n)
	for i := range ids {
		ids[i] = histories.ObjectID("acct" + strconv.Itoa(i))
	}
	return ids
}

var errInsufficient = errors.New("bench: withdrawal refused with insufficient_funds")

// bankExec runs generated operations against accounts ids through run. The
// load stays on the accounts in active: opAuditAll reads those, and since no
// money leaves them it must see their conserved total. On a traced run it
// brackets every attempt: tx.attempt from the moment the runtime calls fn,
// tx.commit_phase from fn's return to the end of the attempt (renamed
// tx.retry_tail when another attempt follows).
func bankExec(run runner, ids, active []histories.ObjectID, tr *tracer) func(w *worker, o *op) error {
	return func(w *worker, o *op) error {
		var total int64
		body := func(t *tx.Txn) error {
			total = 0
			switch o.kind {
			case opTransfer:
				return transfer(t, ids[o.a], ids[o.b], o.amt)
			case opCascade:
				for _, l := range o.legs {
					if err := transfer(t, ids[l.from], ids[l.to], l.amt); err != nil {
						return err
					}
				}
				return nil
			case opDeposit:
				_, err := t.Invoke(ids[o.a], adts.OpDeposit, value.Int(o.amt))
				return err
			case opAuditPair:
				for _, id := range []histories.ObjectID{ids[o.a], ids[o.b]} {
					v, err := t.Invoke(id, adts.OpBalance, value.Nil())
					if err != nil {
						return err
					}
					total += v.MustInt()
				}
				return nil
			default: // opAuditAll
				for _, id := range active {
					v, err := t.Invoke(id, adts.OpBalance, value.Nil())
					if err != nil {
						return err
					}
					total += v.MustInt()
				}
				return nil
			}
		}
		fn := body
		if w.tr != nil {
			fn = func(t *tx.Txn) error {
				w.beginAttempt(tr, string(t.ID()))
				err := body(t)
				w.tr.open(spCommitPhase, -1)
				return err
			}
		}
		var err error
		if o.audit() {
			err = run.RunReadOnly(fn)
		} else {
			err = run.Run(fn)
		}
		if w.tr != nil {
			w.endAttempts(tr)
		}
		if err != nil {
			return err
		}
		switch {
		case o.kind == opDeposit:
			w.deposited += o.amt
		case o.kind == opAuditAll:
			// The audit read every active account inside one transaction,
			// so it must have seen the conserved total (no workload mixes
			// whole-bank audits with deposits).
			if want := int64(len(active)) * seedBalance; total != want {
				return fmt.Errorf("bench: audit saw total %d, want %d", total, want)
			}
		}
		return nil
	}
}

func transfer(t *tx.Txn, from, to histories.ObjectID, amt int64) error {
	v, err := t.Invoke(from, adts.OpWithdraw, value.Int(amt))
	if err != nil {
		return err
	}
	if v == adts.InsufficientFunds {
		return errInsufficient
	}
	_, err = t.Invoke(to, adts.OpDeposit, value.Int(amt))
	return err
}

// beginAttempt closes whatever the previous attempt left open (it failed, so
// its tail was abort and backoff) and opens the next one under the root.
func (w *worker) beginAttempt(tr *tracer, key string) {
	w.tr.retryTail()
	w.tr.closeTo(1)
	if w.key != "" {
		tr.unbind(w.key)
	}
	w.key = key
	tr.bind(key, w.tr)
	w.tr.open(spAttempt, -1)
}

// endAttempts closes the last attempt, leaving the root for the driver.
func (w *worker) endAttempts(tr *tracer) {
	w.tr.closeTo(1)
	if w.key != "" {
		tr.unbind(w.key)
		w.key = ""
	}
}

// seedAccounts deposits the seed balance into every account, 64 accounts to
// a transaction.
func seedAccounts(run runner, ids []histories.ObjectID) error {
	const batch = 64
	for lo := 0; lo < len(ids); lo += batch {
		hi := lo + batch
		if hi > len(ids) {
			hi = len(ids)
		}
		if err := run.Run(func(t *tx.Txn) error {
			for _, id := range ids[lo:hi] {
				if _, err := t.Invoke(id, adts.OpDeposit, value.Int(seedBalance)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("seeding accounts: %w", err)
		}
	}
	return nil
}

// readBalances reads every account in one read-only transaction.
func readBalances(run runner, ids []histories.ObjectID) ([]int64, error) {
	out := make([]int64, len(ids))
	err := run.RunReadOnly(func(t *tx.Txn) error {
		for i, id := range ids {
			v, err := t.Invoke(id, adts.OpBalance, value.Nil())
			if err != nil {
				return err
			}
			out[i] = v.MustInt()
		}
		return nil
	})
	return out, err
}

// --- facade stacks ---------------------------------------------------------

// facadeSpec describes a single-node stack: what a user passes to
// weihl83.NewSystem and AddObject.
type facadeSpec struct {
	property weihl83.Property
	guard    weihl83.Guard
	accounts int
	// active, when set, is how many of the accounts (the first ones) the
	// load touches; whole-bank audits read those.
	active int
	// walDir, when set, puts the system on a file-backed WAL there and
	// rebuilds the accounts from the log instead of seeding them.
	walDir string
}

func (fs facadeSpec) activeIDs(ids []histories.ObjectID) []histories.ObjectID {
	if fs.active > 0 {
		return ids[:fs.active]
	}
	return ids
}

// checkpointer is the part of a single-node stack file_wal_transfer's set-up
// needs beyond the stack itself.
type checkpointer interface {
	Checkpoint() (int64, error)
}

func accountTypes(ids []histories.ObjectID) map[weihl83.ObjectID]weihl83.ADT {
	types := make(map[weihl83.ObjectID]weihl83.ADT, len(ids))
	for _, id := range ids {
		types[id] = weihl83.Account()
	}
	return types
}

// buildFacade assembles the stack through the entry points a user calls.
func buildFacade(fs facadeSpec) (*stack, *weihl83.System, error) {
	ids := accountIDs(fs.accounts)
	opts := weihl83.Options{Property: fs.property}
	var wal *weihl83.FileWAL
	if fs.walDir != "" {
		var err error
		if wal, err = weihl83.OpenFileWAL(fs.walDir, accountTypes(ids)); err != nil {
			return nil, nil, err
		}
		opts.WAL = wal
	}
	sys, err := weihl83.NewSystem(opts)
	if err != nil {
		return nil, nil, err
	}
	if wal != nil {
		if err := sys.RecoverObjects(accountTypes(ids), weihl83.WithGuard(fs.guard)); err != nil {
			return nil, nil, err
		}
	} else {
		for _, id := range ids {
			if err := sys.AddObject(id, weihl83.Account(), weihl83.WithGuard(fs.guard)); err != nil {
				return nil, nil, err
			}
		}
		if err := seedAccounts(sys, ids); err != nil {
			return nil, nil, err
		}
	}
	st := &stack{
		exec:     bankExec(sys, ids, fs.activeIDs(ids), nil),
		balances: func() ([]int64, error) { return readBalances(sys, ids) },
		check:    sys.Err,
		close: func() {
			if wal != nil {
				_ = wal.Close() // read back by the durability oracle, which reports loss
			}
		},
	}
	return st, sys, nil
}

// buildFacadeTraced assembles the same stack from the internal constructors
// the facade itself uses, with a timing decorator at every seam.
func buildFacadeTraced(fs facadeSpec, tr *tracer) (*stack, checkpointer, error) {
	ids := accountIDs(fs.accounts)
	detector := locking.NewDetector()
	cfg := tx.Config{Property: fs.property, Clock: &clock.Source{}, Detector: detector}
	var wal *recovery.FileWAL
	var initial map[histories.ObjectID]spec.State
	specs := make(map[histories.ObjectID]spec.SerialSpec, len(ids))
	for _, id := range ids {
		specs[id] = adts.Account().Spec
	}
	if fs.walDir != "" {
		var err error
		start := time.Now()
		if wal, err = recovery.OpenFileWAL(recovery.FileWALOptions{Dir: fs.walDir, Specs: specs}); err != nil {
			return nil, nil, err
		}
		opened := time.Now()
		backend := tr.backendFor(wal, spAppend)
		cfg.WAL = backend
		if initial, err = recovery.Restart(backend, specs); err != nil {
			return nil, nil, err
		}
		_, _, inRecords := tr.backendTotals(spAppend)
		tr.extra["recovery.open_ms"] = ms(opened.Sub(start))
		tr.extra["recovery.records_ms"] = float64(inRecords) / 1e6
		tr.extra["recovery.replay_ms"] = ms(time.Since(opened)) - float64(inRecords)/1e6
	}
	m, err := tx.NewManager(cfg)
	if err != nil {
		return nil, nil, err
	}
	var resources []cc.Resource
	for i, id := range ids {
		t := adts.Account()
		var g locking.Guard
		switch fs.guard {
		case weihl83.GuardCommut:
			g = locking.TableGuard{Conflicts: t.Conflicts}
		case weihl83.GuardCascade:
			g = conflict.ForType(t)
		default:
			return nil, nil, fmt.Errorf("bench: no traced twin for guard %d", fs.guard)
		}
		g = tr.guard(g, i)
		var r cc.Resource
		var d *resourceDecorator
		if fs.property == weihl83.Hybrid {
			r, err = hybridcc.New(hybridcc.Config{ID: id, Type: t, Guard: g, Detector: detector})
			d = tr.resource(r, i, spHybUpdate, spHybFinish, spHybFinish)
			d.snapshot = spHybSnapshot
		} else {
			r, err = locking.New(locking.Config{ID: id, Type: t, Guard: g, Detector: detector, Initial: initial[id]})
			d = tr.resource(r, i, spLockInvoke, spLockFinish, spLockFinish)
		}
		if err != nil {
			return nil, nil, err
		}
		if err := m.Register(d); err != nil {
			return nil, nil, err
		}
		resources = append(resources, d)
	}
	if wal == nil {
		if err := seedAccounts(m, ids); err != nil {
			return nil, nil, err
		}
	}
	return &stack{
		exec:     bankExec(m, ids, fs.activeIDs(ids), tr),
		balances: func() ([]int64, error) { return readBalances(m, ids) },
		check: func() error {
			for _, r := range resources {
				if err := r.(*resourceDecorator).Err(); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			if wal != nil {
				_ = wal.Close()
			}
		},
	}, walCheckpointer{cfg.WAL, specs}, nil
}

// walCheckpointer checkpoints a log the way weihl83.System.Checkpoint does.
type walCheckpointer struct {
	wal   recovery.Backend
	specs map[histories.ObjectID]spec.SerialSpec
}

func (c walCheckpointer) Checkpoint() (int64, error) { return c.wal.Checkpoint(c.specs) }

// --- cluster stacks --------------------------------------------------------

const (
	clusterSites    = 4
	clusterAccounts = 256
)

// buildCluster assembles four sites behind a two-member coordinator pool as
// cmd/bankbench/shard.go does: zero network delay (so latency is processor
// time only), 300µs RPC timeout with 7 retransmissions, escrow guards,
// accounts placed round-robin. replicas > 1 turns on replica groups and
// read-any routing. With tr set, the coordinator, the cluster resources,
// every site's log and every account's guard are decorated.
func buildCluster(seed int64, replicas int, tr *tracer) (*stack, error) {
	network := dist.NewNetwork(0, 0, seed)
	network.SetRPC(300*time.Microsecond, 7)
	var coords []*dist.Coordinator
	for _, id := range []dist.SiteID{"C0", "C1"} {
		c, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: id, Network: network})
		if err != nil {
			return nil, err
		}
		coords = append(coords, c)
	}
	pool, err := dist.NewPool(coords...)
	if err != nil {
		return nil, err
	}
	sites := make([]*dist.Site, clusterSites)
	for i := range sites {
		sc := dist.SiteConfig{
			ID:           dist.SiteID("S" + strconv.Itoa(i)),
			Network:      network,
			Coordinators: pool.IDs(),
			WaitTimeout:  5 * time.Millisecond,
		}
		if tr != nil {
			sc.Disk = tr.backendFor(&recovery.Disk{}, spSiteWAL)
		}
		if sites[i], err = dist.NewSite(sc); err != nil {
			return nil, err
		}
	}
	ids := accountIDs(clusterAccounts)
	for i, id := range ids {
		i := i
		guard := func(adts.Type) locking.Guard {
			var g locking.Guard = locking.EscrowGuard{}
			if tr != nil {
				g = tr.guard(g, i)
			}
			return g
		}
		if err := sites[i%clusterSites].AddObject(id, adts.Account(), guard); err != nil {
			return nil, err
		}
	}
	cluster := dist.NewCluster(network, pool, 0, nil)
	for _, s := range sites {
		if err := cluster.Join(s.ID()); err != nil {
			return nil, err
		}
	}
	if replicas > 1 {
		if err := cluster.EnableReplication(replicas); err != nil {
			return nil, err
		}
	}
	cfg := tx.Config{
		Property:    tx.Dynamic,
		Coordinator: pool,
		ReadRouter:  cluster.ReadRouter(),
		MaxRetries:  10000,
		Backoff:     tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: seed + 1},
	}
	if tr != nil {
		cfg.Coordinator = coordinatorDecorator{Coordinator: pool, tr: tr}
		cfg.ReadRouter = tr.readRouter(cfg.ReadRouter)
	}
	m, err := tx.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		var r cc.Resource = cluster.Resource(id, "")
		if tr != nil {
			r = tr.resource(r, i, spDistInvoke, spDistPrepare, spDistFinish)
		}
		if err := m.Register(r); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		id := id
		if err := m.Run(func(t *tx.Txn) error {
			_, err := t.Invoke(id, adts.OpDeposit, value.Int(seedBalance))
			return err
		}); err != nil {
			return nil, fmt.Errorf("seeding %s: %w", id, err)
		}
	}
	quiesce := func() error { return cluster.ReplicationIdle(30 * time.Second) }
	if err := quiesce(); err != nil {
		return nil, err
	}
	leaderKey := func(id histories.ObjectID) (string, error) {
		home, ok := cluster.HomeOf(id)
		if !ok {
			return "", fmt.Errorf("bench: %s has no home", id)
		}
		s, err := network.Site(home)
		if err != nil {
			return "", err
		}
		return s.CommittedStateKey(id)
	}
	return &stack{
		exec: bankExec(m, ids, ids, tr),
		balances: func() ([]int64, error) {
			out := make([]int64, len(ids))
			for i, id := range ids {
				key, err := leaderKey(id)
				if err != nil {
					return nil, err
				}
				if out[i], err = strconv.ParseInt(key, 10, 64); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
		quiesce: quiesce,
		// Convergence: once replication is idle every follower holds the
		// leader's committed state.
		check: func() error {
			for _, id := range ids {
				want, err := leaderKey(id)
				if err != nil {
					return err
				}
				set := cluster.ReplicaSet(id)
				if len(set) != replicas {
					return fmt.Errorf("bench: %s has %d replicas, want %d", id, len(set), replicas)
				}
				for _, f := range set[1:] {
					s, err := network.Site(f)
					if err != nil {
						return err
					}
					got, _, err := s.ReplicaStateKey(id)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("bench: %s diverged at follower %s: %s, leader has %s", id, f, got, want)
					}
				}
			}
			return nil
		},
		close: cluster.Close,
	}, nil
}

// --- service stack ---------------------------------------------------------

const (
	serviceKeys   = 1024
	serviceTenant = "bank"
)

// buildService starts the HTTP service in-process on a loopback listener
// with one tenant (dynamic atomicity, argument-aware commutativity guard)
// and gives each worker its own client on its own persistent connection.
// With tr set, the server's handler and the clients' transports are
// decorated.
func buildService(tr *tracer, ws []*worker) (*stack, error) {
	defaults, err := service.ResolveTenantOptions(service.TenantConfig{
		Property: "dynamic", Guard: "commut", AutoCreate: "account",
	})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Options{DefaultTenant: defaults})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed at close
	}()
	base := "http://" + ln.Addr().String()

	transports := make([]*http.Transport, len(ws))
	clients := make([]*client.Client, len(ws))
	for i, w := range ws {
		transports[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: 5 * time.Minute}
		var rt http.RoundTripper = transports[i]
		if tr != nil {
			rt = bindingTransport{base: rt, tr: tr, w: w.tr}
		}
		clients[i] = client.New(base, client.Options{
			Tenant:     serviceTenant,
			MaxRetries: 4,
			HTTPClient: &http.Client{Transport: rt},
			Backoff:    weihl83.Backoff{Max: 20 * time.Millisecond},
		})
	}
	closeAll := func() {
		srv.Drain()
		_ = hs.Close()
		<-served
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	name := func(i int) string { return "acct" + strconv.Itoa(i) }
	const batch = 32
	for lo := 0; lo < serviceKeys; lo += batch {
		ops := make([]service.OpRequest, 0, batch)
		for i := lo; i < lo+batch; i++ {
			ops = append(ops, service.OpRequest{Object: name(i), Op: adts.OpDeposit, Arg: value.Int(seedBalance)})
		}
		// Alternating clients also establishes both connections.
		if _, err := clients[(lo/batch)%len(clients)].Run(ctx, ops); err != nil {
			closeAll()
			return nil, fmt.Errorf("seeding service: %w", err)
		}
	}
	return &stack{
		exec: func(w *worker, o *op) error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c := clients[w.id]
			if o.audit() {
				_, err := c.RunReadOnly(ctx, []service.OpRequest{
					{Object: name(o.a), Op: adts.OpBalance, Arg: value.Nil()},
					{Object: name(o.b), Op: adts.OpBalance, Arg: value.Nil()},
				})
				return err
			}
			resp, err := c.Run(ctx, []service.OpRequest{
				{Object: name(o.a), Op: adts.OpWithdraw, Arg: value.Int(o.amt)},
				{Object: name(o.b), Op: adts.OpDeposit, Arg: value.Int(o.amt)},
			})
			if err != nil {
				return err
			}
			if len(resp.Results) != 2 || resp.Results[0] == adts.InsufficientFunds {
				return errInsufficient
			}
			return nil
		},
		balances: func() ([]int64, error) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out := make([]int64, 0, serviceKeys)
			for lo := 0; lo < serviceKeys; lo += batch {
				ops := make([]service.OpRequest, 0, batch)
				for i := lo; i < lo+batch; i++ {
					ops = append(ops, service.OpRequest{Object: name(i), Op: adts.OpBalance, Arg: value.Nil()})
				}
				resp, err := clients[0].RunReadOnly(ctx, ops)
				if err != nil {
					return nil, err
				}
				for _, v := range resp.Results {
					out = append(out, v.MustInt())
				}
			}
			return out, nil
		},
		check: func() error {
			if sys := srv.TenantSystem(serviceTenant); sys != nil {
				return sys.Err()
			}
			return errors.New("bench: service lost its tenant")
		},
		close: closeAll,
	}, nil
}
