package tx

import (
	"sync"
	"sync/atomic"

	"weihl83/internal/obs"
	"weihl83/internal/recovery"
)

// Group-commit observability: how many batches were forced, how many
// transactions each carried, and how many committers rode a batch another
// transaction led.
var (
	obsGroupBatches = obs.Default.Counter("tx.groupcommit.batches")
	obsGroupRiders  = obs.Default.Counter("tx.groupcommit.riders")
	obsGroupSize    = obs.Default.Histogram("tx.groupcommit.batch_size")
)

// walReq is one transaction's commit-record group awaiting a group-commit
// batch: its intentions records followed by its commit record.
type walReq struct {
	recs []recovery.Record
	err  error
	// done is closed by the batch leader after the request's outcome is in
	// err. lead is closed instead to promote the request's owner to leader
	// of the next batch (its request still queued).
	done chan struct{}
	lead chan struct{}
}

// pipelineDepth is how many committers may be inside walGroup.submit for a
// leader to pipeline its batch: as many batches as the file WAL overlaps
// fsyncs for.
const pipelineDepth = 2

// walGroup batches concurrent transactions' write-ahead-log appends into
// single forced writes (group commit). The first committer with no leader
// running becomes leader, drains the queue, and hands the whole batch to
// the backend's WriteBatch; arrivals meanwhile queue up for the next batch.
// The leader then promotes the oldest queued request's owner to lead the
// next batch, waits for its own batch's durability and releases its riders
// — in that order while the log is quiet, so batch N+1 is written while
// batch N's fsync is in flight, and with the last two swapped once more
// committers arrive, so the next batch gathers everyone who queues during
// the fsync (see submit). Either way writes stay serialized in queue order.
// Leadership rotates with the workload, and no dedicated logging thread
// exists to stall.
//
// Fault semantics are per transaction: the backend applies the torn/failed
// fault points to each record and fails only the group containing the
// faulted record, so one transaction's torn write never aborts its batch
// mates (exactly as if each had appended solo).
type walGroup struct {
	disk recovery.Backend

	mu      sync.Mutex
	queue   []*walReq
	leading bool
	inside  atomic.Int32 // committers in submit: queued, leading, or awaiting durability
}

// submit logs one transaction's record group, batching it with concurrent
// submitters. It returns nil iff every record in the group is durably
// appended. queued, when non-nil, runs as the group takes its place in the
// queue, under the queue lock: batches are cut from the queue in order, a
// leader is promoted only after its predecessor's WriteBatch returned, and
// WriteBatch keeps group order, so whatever queued draws (the install
// ticket, the commit timestamp it patches into recs) is drawn in log order.
func (g *walGroup) submit(recs []recovery.Record, queued func()) error {
	req := &walReq{recs: recs, done: make(chan struct{}), lead: make(chan struct{})}
	g.inside.Add(1)
	defer g.inside.Add(-1)
	g.mu.Lock()
	g.queue = append(g.queue, req)
	if queued != nil {
		queued()
	}
	if g.leading {
		// A leader is running; it (or a successor) will either log our
		// group or promote us.
		g.mu.Unlock()
		select {
		case <-req.done:
			obsGroupRiders.Inc()
			return req.err
		case <-req.lead:
			// Promoted: fall through to lead the next batch ourselves.
		}
		g.mu.Lock()
	} else {
		g.leading = true
	}
	batch := g.queue
	g.queue = nil
	g.mu.Unlock()

	groups := make([][]recovery.Record, len(batch))
	for i, r := range batch {
		groups[i] = r.recs
	}
	wait := g.disk.WriteBatch(groups)

	// Pipeline only while the log is quiet: with at most pipelineDepth
	// committers inside, handing leadership on before this batch is durable
	// lets the next batch's write and fsync overlap this one's. With more,
	// they would each write and wait on their own, splitting over more,
	// emptier fsyncs than holding leadership through this one — the next
	// batch then takes everyone who queued meanwhile in one write.
	pipelined := g.inside.Load() <= pipelineDepth
	var errs []error
	if !pipelined {
		errs = wait()
	}
	g.mu.Lock()
	if len(g.queue) > 0 {
		close(g.queue[0].lead)
	} else {
		g.leading = false
	}
	g.mu.Unlock()
	if pipelined {
		errs = wait()
	}
	obsGroupBatches.Inc()
	obsGroupSize.Observe(int64(len(batch)))
	var myErr error
	for i, r := range batch {
		r.err = errs[i]
		if r == req {
			myErr = errs[i]
			continue
		}
		close(r.done)
	}
	return myErr
}
