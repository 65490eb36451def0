package tx

import (
	"sync"

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

// walGroup batches concurrent transactions' write-ahead-log appends into
// single forced writes (group commit). The first committer with no leader
// running becomes leader, drains the queue, and hands the whole batch to
// the backend's AppendBatch under one stable-storage force; arrivals
// during that write queue up for the next batch. When the leader finishes
// it promotes the oldest queued request's owner to lead the next batch —
// leadership rotates with the workload, so no committer waits more than
// one batch and no dedicated logging thread exists to stall.
//
// Fault semantics are per transaction: AppendBatch applies the torn/failed
// fault points to each record and fails only the group containing the
// faulted record, so one transaction's torn write never aborts its batch
// mates (exactly as if each had appended solo).
type walGroup struct {
	disk recovery.Backend

	mu      sync.Mutex
	queue   []*walReq
	leading bool
}

// submit logs one transaction's record group, batching it with concurrent
// submitters. It returns nil iff every record in the group is durably
// appended. queued, when non-nil, runs as the group takes its place in the
// queue, under the queue lock: batches are cut from the queue in order and
// AppendBatch keeps group order, so whatever queued draws (the install
// ticket, the commit timestamp it patches into recs) is drawn in log order.
func (g *walGroup) submit(recs []recovery.Record, queued func()) error {
	req := &walReq{recs: recs, done: make(chan struct{}), lead: make(chan struct{})}
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
	errs := g.disk.AppendBatch(groups)
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

	g.mu.Lock()
	if len(g.queue) > 0 {
		close(g.queue[0].lead)
	} else {
		g.leading = false
	}
	g.mu.Unlock()
	return myErr
}
