// Command loadgen drives OPEN-LOOP load at the transaction service: a
// fixed arrival rate that does not slow down when the server does, which
// is what "millions of users" look like — users do not politely wait for
// each other's responses before clicking.
//
//	loadgen -tenants 1,2 -rates 500,1000,2000 -conns 1200 -duration 3s
//
// Each ladder rung is (tenant count × arrival rate): arrivals are spaced
// uniformly at the configured rate, keys are drawn Zipf-skewed, and each
// arrival is dispatched to a pool of -conns workers, each owning one
// persistent HTTP connection. Latency is measured FROM THE SCHEDULED
// ARRIVAL, so client-side queueing (the open-loop penalty of an overloaded
// server) is part of the number, and percentiles come from the obs
// histogram snapshot accessors. Stdout carries the machine-readable
// document; tables go to stderr.
//
// With no -addr, loadgen spawns the service in-process on a loopback
// listener and drives it over real TCP.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weihl83"
	"weihl83/internal/client"
	"weihl83/internal/fault"
	"weihl83/internal/obs"
	"weihl83/internal/service"
	"weihl83/internal/value"
)

type config struct {
	addr      string
	tenants   []int
	rates     []int
	conns     int
	duration  time.Duration
	keys      int
	zipfS     float64
	readFrac  float64
	seed      int64
	retries   int
	seedBal   int64
	property  string
	guard     string
	maxInfl   int
	maxQueue  int
	faultSeed int64
	faults    string
}

// row is one ladder rung in machine-readable form: kind + labels identify
// the rung, commits_per_sec is its throughput.
type row struct {
	Exp           string                `json:"exp"`
	Kind          string                `json:"kind"`
	Labels        map[string]int64      `json:"labels"`
	DurationNS    int64                 `json:"duration_ns"`
	Conns         int                   `json:"conns"`
	Offered       int64                 `json:"offered"`
	Dropped       int64                 `json:"dropped"`
	Completed     int64                 `json:"completed"`
	Committed     int64                 `json:"committed"`
	Failed        int64                 `json:"failed"`
	Shed          int64                 `json:"shed"`
	Retries       int64                 `json:"retries"`
	PeakInFlight  int64                 `json:"peak_in_flight"`
	CommitsPerSec float64               `json:"commits_per_sec"`
	P50NS         int64                 `json:"p50_ns"`
	P95NS         int64                 `json:"p95_ns"`
	P99NS         int64                 `json:"p99_ns"`
	PerTenant     map[string]float64    `json:"per_tenant_commits_per_sec"`
	Latency       obs.HistogramSnapshot `json:"latency_ns"`
}

type doc struct {
	Experiment string         `json:"experiment"`
	Config     map[string]any `json:"config"`
	Rows       []row          `json:"rows"`
	Obs        obs.Snapshot   `json:"obs"`
}

func main() {
	cfg := parseFlags()
	base := cfg.addr
	if base == "" {
		var stop func()
		var err error
		base, stop, err = spawn(cfg)
		if err != nil {
			log.Fatalf("loadgen: spawning server: %v", err)
		}
		defer stop()
	}

	pool := newPool(cfg.conns, base)
	if err := pool.warmup(); err != nil {
		log.Fatalf("loadgen: warmup: %v", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d persistent connections warmed against %s\n", cfg.conns, base)

	out := doc{Experiment: "service", Config: map[string]any{
		"tenants": cfg.tenants, "rates": cfg.rates, "conns": cfg.conns,
		"duration_ns": int64(cfg.duration), "keys": cfg.keys, "zipf_s": cfg.zipfS,
		"read_frac": cfg.readFrac, "seed": cfg.seed, "retries": cfg.retries,
	}}
	fmt.Fprintf(os.Stderr, "%-8s %-8s %10s %10s %10s %10s %10s %12s %12s\n",
		"tenants", "rate", "offered", "committed", "shed", "retries", "peak", "p50", "p99")
	for _, tenants := range cfg.tenants {
		for _, rate := range cfg.rates {
			r := runRung(cfg, pool, tenants, rate)
			out.Rows = append(out.Rows, r)
			fmt.Fprintf(os.Stderr, "%-8d %-8d %10d %10d %10d %10d %10d %12v %12v\n",
				tenants, rate, r.Offered, r.Committed, r.Shed, r.Retries, r.PeakInFlight,
				time.Duration(r.P50NS).Round(time.Microsecond), time.Duration(r.P99NS).Round(time.Microsecond))
		}
	}
	out.Obs = obs.Default.Snapshot(false)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

func parseFlags() config {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "service base URL (empty: spawn an in-process server)")
	tenants := flag.String("tenants", "1,2", "comma-separated tenant counts (ladder dimension)")
	rates := flag.String("rates", "500,1000,2000", "comma-separated total arrival rates per second (ladder dimension)")
	flag.IntVar(&cfg.conns, "conns", 1024, "persistent connections (worker pool size)")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "duration per ladder rung")
	flag.IntVar(&cfg.keys, "keys", 512, "objects (accounts) per tenant")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.2, "Zipf skew exponent for key choice (>1)")
	flag.Float64Var(&cfg.readFrac, "read-frac", 0.2, "fraction of arrivals that are read-only audits")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.IntVar(&cfg.retries, "retries", 4, "client-side retry budget per transaction")
	flag.Int64Var(&cfg.seedBal, "balance", 1_000_000, "initial balance deposited per account")
	flag.StringVar(&cfg.property, "property", "dynamic", "spawned server: default tenant property")
	flag.StringVar(&cfg.guard, "guard", "cascade", "spawned server: default object guard")
	flag.IntVar(&cfg.maxInfl, "max-inflight", 64, "spawned server: per-tenant in-flight bound")
	flag.IntVar(&cfg.maxQueue, "max-queue", 512, "spawned server: shed queue depth")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 0, "spawned server: fault injector seed (0 disables)")
	flag.StringVar(&cfg.faults, "fault", "", "spawned server: point=prob pairs, e.g. svc.accept.drop=0.01")
	flag.Parse()
	var err error
	if cfg.tenants, err = parseInts(*tenants); err != nil {
		log.Fatalf("loadgen: -tenants: %v", err)
	}
	if cfg.rates, err = parseInts(*rates); err != nil {
		log.Fatalf("loadgen: -rates: %v", err)
	}
	return cfg
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("values must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// spawn starts an in-process service on a loopback listener.
func spawn(cfg config) (base string, stop func(), err error) {
	tenantDefaults, err := service.ResolveTenantOptions(service.TenantConfig{
		Property:   cfg.property,
		Guard:      cfg.guard,
		AutoCreate: "account",
	})
	if err != nil {
		return "", nil, err
	}
	var inj *fault.Injector
	if cfg.faultSeed != 0 {
		inj = fault.New(cfg.faultSeed)
		for _, pair := range strings.Split(cfg.faults, ",") {
			if pair = strings.TrimSpace(pair); pair == "" {
				continue
			}
			name, probStr, ok := strings.Cut(pair, "=")
			if !ok {
				return "", nil, fmt.Errorf("bad fault spec %q", pair)
			}
			prob, err := strconv.ParseFloat(probStr, 64)
			if err != nil {
				return "", nil, err
			}
			inj.Enable(fault.Point(name), fault.Rule{Prob: prob})
		}
	}
	srv := service.New(service.Options{
		MaxQueueDepth: cfg.maxQueue,
		MaxInFlight:   cfg.maxInfl,
		DefaultTenant: tenantDefaults,
		Injector:      inj,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		srv.Drain()
		_ = hs.Close()
	}, nil
}

// pool is the worker pool: one persistent HTTP connection per worker, so a
// rung at -conns 1200 really holds 1200 established connections against
// the server rather than multiplexing through net/http's default two idle
// connections per host.
type pool struct {
	base    string
	clients []*http.Client
}

func newPool(conns int, base string) *pool {
	p := &pool{base: base, clients: make([]*http.Client, conns)}
	for i := range p.clients {
		p.clients[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     5 * time.Minute,
		}}
	}
	return p
}

// warmup establishes every worker's connection with one health check.
func (p *pool) warmup() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(p.clients))
	for _, hc := range p.clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			resp, err := hc.Get(p.base + "/v1/healthz")
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}(hc)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// arrival is one scheduled request: everything random is drawn by the
// dispatcher from the seeded RNG, so the offered workload is a pure
// function of the flags and the arrival clock.
type arrival struct {
	when     time.Time
	tenant   int
	readOnly bool
	src, dst uint64
}

func runRung(cfg config, p *pool, tenants, rate int) row {
	names := make([]string, tenants)
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
	}
	if err := seedTenants(cfg, p, names); err != nil {
		log.Fatalf("loadgen: seeding rung tenants=%d: %v", tenants, err)
	}

	var (
		offered, dropped, completed int64
		committed, failed           int64
		inFlight, peak              int64
		perTenant                   = make([]int64, tenants)
		lat                         obs.Histogram
	)
	shed0 := obs.Default.Counter("svc.client.shed").Load()
	retry0 := obs.Default.Counter("svc.client.retries").Load()

	// Workers: each owns one connection; per-tenant service clients share
	// it. The arrivals channel is the client-side queue — sized for a
	// short burst, beyond which open-loop arrivals are dropped and counted
	// (the client-side analogue of server-side shed).
	arrivals := make(chan arrival, 4*len(p.clients))
	var wg sync.WaitGroup
	for w := range p.clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			cls := make([]*client.Client, tenants)
			for i, name := range names {
				cls[i] = client.New(p.base, client.Options{
					Tenant:     name,
					MaxRetries: cfg.retries,
					HTTPClient: hc,
					Backoff:    weihl83.Backoff{Max: 20 * time.Millisecond},
				})
			}
			for a := range arrivals {
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				resp, err := execute(cls[a.tenant], a)
				atomic.AddInt64(&inFlight, -1)
				atomic.AddInt64(&completed, 1)
				if err == nil && resp.Committed {
					atomic.AddInt64(&committed, 1)
					atomic.AddInt64(&perTenant[a.tenant], 1)
					lat.Observe(int64(time.Since(a.when)))
				} else {
					atomic.AddInt64(&failed, 1)
				}
			}
		}(p.clients[w])
	}

	// Open-loop dispatcher: uniform arrival spacing at the rung's rate.
	// The dispatcher never waits for completions; a full queue is a drop,
	// not backpressure.
	rng := rand.New(rand.NewSource(cfg.seed + int64(tenants)*1_000_003 + int64(rate)))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
	interval := time.Duration(int64(time.Second) / int64(rate))
	start := time.Now()
	deadline := start.Add(cfg.duration)
	next := start
	for next.Before(deadline) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		a := arrival{
			when:     next,
			tenant:   rng.Intn(tenants),
			readOnly: rng.Float64() < cfg.readFrac,
			src:      zipf.Uint64(),
			dst:      zipf.Uint64(),
		}
		offered++
		select {
		case arrivals <- a:
		default:
			dropped++
		}
		next = next.Add(interval)
	}
	close(arrivals)
	wg.Wait()
	wall := time.Since(start)

	snap := obs.SnapshotOf(&lat)
	r := row{
		Exp:  "service",
		Kind: "openloop",
		Labels: map[string]int64{
			"tenants": int64(tenants),
			"rate":    int64(rate),
		},
		DurationNS:    int64(wall),
		Conns:         len(p.clients),
		Offered:       offered,
		Dropped:       dropped,
		Completed:     completed,
		Committed:     committed,
		Failed:        failed,
		Shed:          obs.Default.Counter("svc.client.shed").Load() - shed0,
		Retries:       obs.Default.Counter("svc.client.retries").Load() - retry0,
		PeakInFlight:  peak,
		CommitsPerSec: float64(committed) / wall.Seconds(),
		P50NS:         snap.Quantile(0.50),
		P95NS:         snap.Quantile(0.95),
		P99NS:         snap.Quantile(0.99),
		PerTenant:     make(map[string]float64, tenants),
		Latency:       snap,
	}
	for i, name := range names {
		r.PerTenant[name] = float64(perTenant[i]) / wall.Seconds()
	}
	return r
}

// execute runs one arrival's transaction: a two-account transfer or a
// read-only audit of the hot key.
func execute(c *client.Client, a arrival) (*service.TxResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	src := "acct" + strconv.FormatUint(a.src, 10)
	dst := "acct" + strconv.FormatUint(a.dst, 10)
	if a.readOnly {
		return c.RunReadOnly(ctx, []service.OpRequest{
			{Object: src, Op: "balance", Arg: value.Nil()},
		})
	}
	return c.Run(ctx, []service.OpRequest{
		{Object: src, Op: "withdraw", Arg: value.Int(1)},
		{Object: dst, Op: "deposit", Arg: value.Int(1)},
	})
}

// seedTenants provisions each tenant and deposits the initial balance into
// every account, batched to keep rung setup fast. Idempotent across rungs
// sharing tenants (deposits accumulate; the workload does not depend on
// exact balances, only on their being comfortably positive).
func seedTenants(cfg config, p *pool, names []string) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			c := client.New(p.base, client.Options{
				Tenant:     name,
				MaxRetries: 8,
				HTTPClient: p.clients[i%len(p.clients)],
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := c.EnsureTenant(ctx, service.TenantConfig{
				Property:   cfg.property,
				Guard:      cfg.guard,
				AutoCreate: "account",
			}); err != nil {
				errCh <- fmt.Errorf("tenant %s: %w", name, err)
				return
			}
			const batch = 32
			for k := 0; k < cfg.keys; k += batch {
				ops := make([]service.OpRequest, 0, batch)
				for j := k; j < k+batch && j < cfg.keys; j++ {
					ops = append(ops, service.OpRequest{
						Object: "acct" + strconv.Itoa(j),
						Op:     "deposit",
						Arg:    value.Int(cfg.seedBal),
					})
				}
				if _, err := c.Run(ctx, ops); err != nil {
					errCh <- fmt.Errorf("tenant %s: seeding: %w", name, err)
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
