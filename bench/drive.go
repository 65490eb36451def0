package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// numWorkers is the load the run shape fixes: two closed-loop worker
// goroutines (two persistent connections on the service workload). The sandbox has two CPUs;
// the environment block records what the machine actually offered.
const numWorkers = 2

// opKind selects the transaction a generated operation runs.
type opKind uint8

const (
	opTransfer  opKind = iota // withdraw amt from a, deposit amt into b
	opCascade                 // four transfers between the accounts in legs
	opDeposit                 // deposit amt into a (creates money)
	opAuditPair               // read-only: balances of a and b
	opAuditAll                // read-only: balances of every account
)

// op is one generated transaction. Everything random in it comes from the
// run's seed; the program under test sees only these values.
type op struct {
	kind opKind
	a, b int
	amt  int64
	legs [4]leg // opCascade
}

type leg struct {
	from, to int
	amt      int64
}

func (o *op) audit() bool { return o.kind == opAuditPair || o.kind == opAuditAll }

// sampleLog holds one worker's latencies of one transaction class in
// completion order; bounds[k] is how many had completed when window k ended.
//
// lat lives outside the Go heap (see newSampleLog): the collector paces
// itself on the size of the live heap, so a log growing on the heap would
// make collections rarer as a run goes on and the program under test faster
// with them.
type sampleLog struct {
	lat     []int64
	bounds  []int
	dropped int64 // samples that found the log full
}

// sampleCap is the room of one sample log: twenty seconds at 400k/s. The
// mapping is anonymous and private, so only the pages written cost memory.
const sampleCap = 8 << 20

func newSampleLog() (sampleLog, error) {
	raw, err := syscall.Mmap(-1, 0, sampleCap*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return sampleLog{}, fmt.Errorf("mapping a sample log: %w", err)
	}
	return sampleLog{lat: unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), sampleCap)[:0]}, nil
}

func (l *sampleLog) add(lat int64) {
	if len(l.lat) == cap(l.lat) {
		l.dropped++
		return
	}
	l.lat = append(l.lat, lat)
}

// reset forgets the samples and keeps the mapping.
func (l *sampleLog) reset() {
	l.lat, l.bounds, l.dropped = l.lat[:0], nil, 0
}

// free returns the mapping.
func (l *sampleLog) free() {
	if cap(l.lat) == 0 {
		return
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(l.lat))), cap(l.lat)*8)
	_ = syscall.Munmap(raw) // the process is about to end or rebuild; nothing to do about a failure
	l.lat = nil
}

func (l *sampleLog) window(k int) []int64 {
	lo := 0
	if k > 0 {
		lo = l.bounds[k-1]
	}
	return l.lat[lo:l.bounds[k]]
}

// worker is one load-generating goroutine and everything it records.
type worker struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	tr   *wtrace // nil on untraced runs

	upd, aud sampleLog
	// byKind splits update latencies by operation kind (traced runs of
	// replica_mix compare commuting deposits with non-commuting transfers).
	byKind map[opKind][]int64

	attempted int64
	failed    int64
	firstErr  error
	// deposited is the money committed deposits created, for conservation.
	deposited int64
	// key is the transaction id (or request id) currently bound to tr.
	key string
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// loadPlan is one stretch of load, cut into equal windows.
type loadPlan struct {
	window  time.Duration
	windows int
}

func (p loadPlan) measured() time.Duration { return time.Duration(p.windows) * p.window }

// closedLoop drives st with numWorkers workers, each sending its next
// generated operation as soon as the previous one completed, and returns
// once every worker has finished the plan. Latency runs from the moment the
// worker was free to send (the previous completion) to the commit ack.
func closedLoop(ws []*worker, st *stack, gen func(w *worker) op, plan loadPlan) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			end := plan.measured()
			nextBound := plan.window
			prev := time.Since(start)
			for prev < end {
				o := gen(w)
				if w.tr != nil {
					w.tr.open(spTxn, -1)
				}
				err := st.exec(w, &o)
				if w.tr != nil {
					w.tr.closeTo(0)
				}
				now := time.Since(start)
				for now >= nextBound && len(w.upd.bounds) < plan.windows {
					w.upd.bounds = append(w.upd.bounds, len(w.upd.lat))
					w.aud.bounds = append(w.aud.bounds, len(w.aud.lat))
					nextBound += plan.window
				}
				switch {
				case err != nil:
					w.attempted++
					w.fail(err)
				case now < end:
					w.attempted++
					w.record(&o, int64(now-prev))
				}
				prev = now
			}
			w.closeBounds(plan.windows)
		}(w)
	}
	wg.Wait()
}

func (w *worker) record(o *op, lat int64) {
	if o.audit() {
		w.aud.add(lat)
		return
	}
	w.upd.add(lat)
	if w.byKind != nil {
		w.byKind[o.kind] = append(w.byKind[o.kind], lat)
	}
}

func (w *worker) closeBounds(windows int) {
	for len(w.upd.bounds) < windows {
		w.upd.bounds = append(w.upd.bounds, len(w.upd.lat))
		w.aud.bounds = append(w.aud.bounds, len(w.aud.lat))
	}
}

// windowStats is what the windows of a run say about one transaction class.
type windowStats struct {
	perSec summary
	p50ms  summary
	p90ms  summary
	p99ms  summary
	count  int
}

// loadStats is what a stretch of load recorded, per transaction class.
func loadStats(ws []*worker, plan loadPlan) (upd, aud windowStats) {
	return classStats(ws, func(w *worker) *sampleLog { return &w.upd }, plan),
		classStats(ws, func(w *worker) *sampleLog { return &w.aud }, plan)
}

// minPerWindow is how many samples a window must hold before its p99 is
// taken: ten samples then lie beyond the percentile.
const minPerWindow = 1000

// classStats pools the workers' samples of one class window by window. Rates
// are taken per window; for the percentiles adjacent windows are merged (by
// 2, 5 or 10) until each holds minPerWindow samples, so a class that is a
// small share of the load is not judged on the three slowest of 300.
func classStats(ws []*worker, pick func(*worker) *sampleLog, plan loadPlan) windowStats {
	var rate, p50, p90, p99 []float64
	total := 0
	for k := 0; k < plan.windows; k++ {
		n := 0
		for _, w := range ws {
			n += len(pick(w).window(k))
		}
		total += n
		rate = append(rate, float64(n)/plan.window.Seconds())
	}
	merge := plan.windows
	for _, m := range []int{1, 2, 5, 10} {
		if plan.windows%m == 0 && total/(plan.windows/m) >= minPerWindow {
			merge = m
			break
		}
	}
	for lo := 0; lo+merge <= plan.windows; lo += merge {
		var pooled []int64
		for _, w := range ws {
			for k := lo; k < lo+merge; k++ {
				pooled = append(pooled, pick(w).window(k)...)
			}
		}
		if len(pooled) == 0 {
			continue
		}
		sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
		p50 = append(p50, float64(percentile(pooled, 0.50))/1e6)
		p90 = append(p90, float64(percentile(pooled, 0.90))/1e6)
		p99 = append(p99, float64(percentile(pooled, 0.99))/1e6)
	}
	return windowStats{
		perSec: summarize(rate, total),
		p50ms:  summarize(p50, total),
		p90ms:  summarize(p90, total),
		p99ms:  summarize(p99, total),
		count:  total,
	}
}
