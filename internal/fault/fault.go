// Package fault is a seeded, deterministic fault-injection subsystem. The
// paper treats failure as a first-class event — atomicity is exactly the
// property that survives aborts, crashes and restarts — so the layers that
// can fail (stable storage, the message network, the sites) expose named
// fault points and consult an Injector at each one.
//
// Determinism: whether the n-th hit of a fault point fires is a pure
// function of (seed, point, n). Concurrency may change how many times each
// point is reached in a given run, but it can never change the decision at
// a given (point, hit) pair, so a seed pins the fault schedule: re-running
// the same scenario with the same seed reproduces the same injected faults.
// The injector additionally records an activation trace for diagnostics.
//
// All methods are safe on a nil *Injector (they report "never fires"), so
// instrumented code needs no nil checks at fault points.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"weihl83/internal/obs"
)

// Observability: total and per-point activation counts, plus a trace event
// per firing (the tracer places each fault among the transaction events it
// perturbed).
var (
	obsFires = obs.Default.Counter("fault.fires")
	obsTrace = obs.Default.Tracer()
)

// Point names a fault point. The instrumented packages hit these points;
// which of them fire is configured per injector with Enable.
type Point string

// The named fault points wired through the system.
const (
	// DiskAppendFail: a stable-storage append fails cleanly (nothing is
	// written). Hit by recovery.Disk.Append.
	DiskAppendFail Point = "disk.append.fail"
	// DiskAppendTorn: a stable-storage append tears — a prefix of the
	// record's calls reaches the platter, the append reports failure, and
	// restart discards the torn record (checksum model). Hit by
	// recovery.Disk.Append for records carrying calls.
	DiskAppendTorn Point = "disk.append.torn"
	// NetRequestDrop: a request message is lost before delivery; the
	// caller times out and retransmits. Hit by dist.Network per attempt.
	NetRequestDrop Point = "net.request.drop"
	// NetRequestDup: a request message is delivered twice; the duplicate's
	// reply is discarded (the site's reply cache makes delivery
	// idempotent). Hit by dist.Network after a successful delivery.
	NetRequestDup Point = "net.request.dup"
	// NetReplyDrop: the reply message is lost; the handler has executed
	// but the caller times out and retransmits (answered from the reply
	// cache). Hit by dist.Network per attempt.
	NetReplyDrop Point = "net.reply.drop"
	// NetDelay: extra message latency (the rule's Delay), reordering
	// concurrent messages. Hit by dist.Network per attempt.
	NetDelay Point = "net.delay"
	// SiteCrashPrepare: the participant crashes after forcing its
	// intentions to the log but before its yes-vote reaches the
	// coordinator — the transaction is in doubt at this site. Hit by
	// dist.Site in the prepare handler.
	SiteCrashPrepare Point = "site.crash.prepare"
	// SiteCrashCommitBeforeLog: the participant crashes on receiving the
	// commit decision, before logging it — recovery must resolve the
	// in-doubt transaction against the coordinator's decision log. Hit by
	// dist.Site in the commit handler.
	SiteCrashCommitBeforeLog Point = "site.crash.commit.before-log"
	// SiteCrashCommitAfterLog: the participant crashes after logging the
	// commit record but before installing the intentions in volatile
	// state — restart redoes the installation from the log. Hit by
	// dist.Site in the commit handler.
	SiteCrashCommitAfterLog Point = "site.crash.commit.after-log"
	// CoordCrashBeforeLog: the coordinator crashes after every participant
	// voted yes but before forcing the decision to its own log — no
	// decision exists anywhere, so participants left in doubt resolve to
	// presumed abort once the coordinator recovers (or unanimously via
	// peers). Hit by dist.Coordinator in Decide.
	CoordCrashBeforeLog Point = "coord.crash.before-log"
	// CoordCrashAfterLog: the coordinator crashes after forcing the
	// decision to its log but before broadcasting it — participants stay
	// in doubt until the cooperative termination protocol reaches the
	// recovered coordinator's durable log or a peer that heard the
	// decision. Hit by dist.Coordinator in Decide.
	CoordCrashAfterLog Point = "coord.crash.after-log"
	// NetPartition: the network splits into groups that cannot exchange
	// messages for a deterministic window, then heals. Consulted by the
	// chaos harness's partition driver to open windows; dist.Network
	// refuses cross-group delivery while one is open.
	NetPartition Point = "net.partition"
	// DiskCheckpointTorn: a checkpoint record tears while being written —
	// the snapshot fails its checksum, compaction is abandoned, and
	// restart falls back to replaying the full log. Hit by
	// recovery.Disk.Checkpoint.
	DiskCheckpointTorn Point = "disk.checkpoint.torn"
	// SvcAcceptDrop: the transaction service drops an admitted request
	// before executing it — the connection is torn down with no response,
	// as if the accept queue overflowed or the proxy died. The client sees
	// a transport error and must treat it as retryable (the transaction
	// never ran). Hit by service.Server after admission, before Run.
	SvcAcceptDrop Point = "svc.accept.drop"
	// SvcResponseTorn: the service's JSON response is cut off after a
	// prefix and the connection closed — the transaction COMMITTED but the
	// client cannot parse the outcome. Retrying is safe for conservation
	// (the harness oracles tolerate duplicate transfers; totals are
	// preserved) but not exactly-once; this point exists to exercise that
	// distinction. Hit by service.Server when writing a response body.
	SvcResponseTorn Point = "svc.response.torn"
	// SvcDrainTimeout: graceful drain's grace period collapses to zero —
	// in-flight transactions are cancelled immediately instead of being
	// given the deadline to finish, as if the supervisor killed the drain.
	// Hit by service.Server.Drain.
	SvcDrainTimeout Point = "svc.drain.timeout"
	// MigrateCrashSource: the source site of a shard migration crashes
	// after forcing its migrate-out intentions (its yes-vote) to the log —
	// the migration is in doubt at the source and resolves through the
	// cooperative termination protocol. Hit by dist.Site in the migration
	// prepare handler.
	MigrateCrashSource Point = "migrate.crash.source"
	// MigrateCrashDest: the destination site of a shard migration crashes
	// after forcing its migrate-in intentions (the copied state baseline)
	// to the log — in doubt at the destination, resolved cooperatively.
	// Hit by dist.Site in the migration prepare handler.
	MigrateCrashDest Point = "migrate.crash.dest"
	// MigrateCrashCommit: a migration participant crashes on receiving the
	// commit decision, before logging and applying the placement change —
	// recovery resolves the in-doubt migration against the coordinator's
	// decision log and redoes the hosting change from the logged
	// intentions. Hit by dist.Site in the migration commit handler.
	MigrateCrashCommit Point = "migrate.crash.commit"
	// MigratePartition: the network partitions mid-migration, isolating
	// the migration's source or destination between the copy and the
	// commit. Consulted by the chaos harness's churn driver when a
	// migration starts.
	MigratePartition Point = "migrate.partition"
	// ClusterChurn: a membership-churn action (join, leave, rebalance, or
	// a targeted shard move) is taken against the elastic cluster while
	// the workload runs. Consulted by the chaos harness's churn driver on
	// its cadence.
	ClusterChurn Point = "cluster.churn"
	// DiskWriteTorn: a file-backed WAL write tears — only a prefix of the
	// frame's bytes reach the file before the write errors. The backend
	// truncates the file back to the pre-record offset so the live log
	// stays clean, and the caller sees a retryable write failure. Hit by
	// recovery.FileWAL's file layer per frame write.
	DiskWriteTorn Point = "disk.write.torn"
	// DiskFsyncFail: the fsync that forces a group-commit batch fails —
	// nothing in the batch may be acknowledged (a commit record the
	// client saw fail must not survive restart), so the backend truncates
	// the segment back to the pre-batch offset and fails every group. Hit
	// by recovery.FileWAL's file layer per fsync.
	DiskFsyncFail Point = "disk.fsync.fail"
	// ReplDeliverDrop: an asynchronous replica delivery attempt is lost
	// before its RPC leaves the origin — the queue worker's bounded-retry
	// loop redelivers it, and the follower's idempotent apply (keyed by
	// the delivery's stamp) absorbs any duplicate. Hit by the replication
	// queue worker per attempt.
	ReplDeliverDrop Point = "repl.deliver.drop"
	// ReplApplyCrash: the follower site crashes inside the replica
	// handler's delivery path — either before the delivery's record is
	// logged (nothing is durable; the redelivery logs and applies it), or
	// after the record, before the in-memory install (restart redoes the
	// record, and the redelivery finds its stamp at the watermark and is
	// redundant). Hit by dist.Site's replica handler in both windows, for
	// every delivery but a seed.
	ReplApplyCrash Point = "repl.apply.crash"
	// ReplPartition: the network partitions a replica group — followers
	// are cut off from the origin's delivery queues for a window, then
	// heal and catch up. Consulted by the chaos harness's replication
	// partition driver on its cadence.
	ReplPartition Point = "repl.partition"
)

// AllPoints returns every named fault point wired through the system, in
// declaration order. The fault-point registry test cross-checks this list
// against the declared constants and against the test suite, so a point
// cannot be added and silently never exercised.
func AllPoints() []Point {
	return []Point{
		DiskAppendFail,
		DiskAppendTorn,
		NetRequestDrop,
		NetRequestDup,
		NetReplyDrop,
		NetDelay,
		SiteCrashPrepare,
		SiteCrashCommitBeforeLog,
		SiteCrashCommitAfterLog,
		CoordCrashBeforeLog,
		CoordCrashAfterLog,
		NetPartition,
		DiskCheckpointTorn,
		SvcAcceptDrop,
		SvcResponseTorn,
		SvcDrainTimeout,
		MigrateCrashSource,
		MigrateCrashDest,
		MigrateCrashCommit,
		MigratePartition,
		ClusterChurn,
		DiskWriteTorn,
		DiskFsyncFail,
		ReplDeliverDrop,
		ReplApplyCrash,
		ReplPartition,
	}
}

// Rule configures when an enabled fault point fires.
type Rule struct {
	// Prob is the firing probability in [0, 1] per hit.
	Prob float64
	// Limit caps the total number of activations; 0 means unlimited.
	Limit int
	// Delay is the extra latency injected by delay-style points.
	Delay time.Duration
}

// Activation records one firing of a fault point.
type Activation struct {
	// Point that fired.
	Point Point
	// Hit is the 1-based per-point hit number at which it fired.
	Hit uint64
}

// ruleState is a Rule plus its per-point counters.
type ruleState struct {
	Rule
	hits  uint64
	fired int
}

// Injector decides, deterministically from its seed, whether each hit of a
// named fault point fires. The zero of *Injector (nil) never fires.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rules map[Point]*ruleState
	trace []Activation
}

// New returns an injector with the given seed and no points enabled.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), rules: make(map[Point]*ruleState)}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return int64(in.seed)
}

// Enable arms point p under rule r (replacing any previous rule and
// resetting its counters).
func (in *Injector) Enable(p Point, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = &ruleState{Rule: r}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose output is
// uniform enough to threshold against a probability.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a fault-point name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decide is the pure decision function: does the hit-th hit of p fire under
// probability prob with seed?
func decide(seed uint64, p Point, hit uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	u := splitmix64(seed ^ fnv64(string(p)) ^ hit*0x9e3779b97f4a7c15)
	return float64(u>>11)/(1<<53) < prob
}

// hit registers one hit of p and reports whether it fires, recording the
// activation.
func (in *Injector) hit(p Point) (Rule, bool) {
	if in == nil {
		return Rule{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rs, ok := in.rules[p]
	if !ok {
		return Rule{}, false
	}
	rs.hits++
	if rs.Limit > 0 && rs.fired >= rs.Limit {
		return Rule{}, false
	}
	if !decide(in.seed, p, rs.hits, rs.Prob) {
		return Rule{}, false
	}
	rs.fired++
	in.trace = append(in.trace, Activation{Point: p, Hit: rs.hits})
	obsFires.Inc()
	obs.Default.Counter("fault.fire." + string(p)).Inc()
	if obsTrace.Enabled() {
		obsTrace.Record(obs.TraceEvent{Kind: obs.KindFault, Note: string(p)})
	}
	return rs.Rule, true
}

// Fires registers one hit of p and reports whether the fault fires.
func (in *Injector) Fires(p Point) bool {
	_, fired := in.hit(p)
	return fired
}

// Delay registers one hit of p and returns the rule's extra latency if the
// fault fires, zero otherwise.
func (in *Injector) Delay(p Point) time.Duration {
	r, fired := in.hit(p)
	if !fired {
		return 0
	}
	return r.Delay
}

// Schedule previews, without consuming hits, which of the first n hits of p
// would fire under its enabled rule (ignoring Limit): the deterministic
// fault schedule the seed pins for that point.
func (in *Injector) Schedule(p Point, n int) []bool {
	if in == nil {
		return make([]bool, n)
	}
	in.mu.Lock()
	var prob float64
	if rs, ok := in.rules[p]; ok {
		prob = rs.Prob
	}
	seed := in.seed
	in.mu.Unlock()
	out := make([]bool, n)
	for i := range out {
		out[i] = decide(seed, p, uint64(i+1), prob)
	}
	return out
}

// Trace returns a copy of the activation trace, in firing order.
func (in *Injector) Trace() []Activation {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Activation(nil), in.trace...)
}

// Stats returns hits and activations per enabled point.
func (in *Injector) Stats() map[Point][2]uint64 {
	out := make(map[Point][2]uint64)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for p, rs := range in.rules {
		out[p] = [2]uint64{rs.hits, uint64(rs.fired)}
	}
	return out
}

// Summary renders per-point hit/fire counts, for diagnostic dumps.
func (in *Injector) Summary() string {
	stats := in.Stats()
	points := make([]string, 0, len(stats))
	for p := range stats {
		points = append(points, string(p))
	}
	sort.Strings(points)
	var b strings.Builder
	fmt.Fprintf(&b, "injector seed=%d\n", in.Seed())
	for _, p := range points {
		s := stats[Point(p)]
		fmt.Fprintf(&b, "  %-30s hits=%-6d fired=%d\n", p, s[0], s[1])
	}
	return b.String()
}
