package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"demaq/internal/engine"
	"demaq/internal/msgstore"
	"demaq/internal/store"
)

// lateAfter is how far behind its due time the open-loop generator may
// start a send before the send counts as late.
const lateAfter = 2 * time.Millisecond

// run is one node's lifetime in the harness: set-up (open, master data,
// preload, fixed-count warm-up), then restart cycles or a measured window,
// then verification.
type run struct {
	w    *workload
	seed uint64
	tr   *tracer
	sk   *sink
	node *node
	cl   client

	nextID   atomic.Int64
	admitted atomic.Int64 // inputs acked to the client
	ackErrs  atomic.Int64 // errors and refusals at admission
	wire     atomic.Int64 // input payload bytes sent
	firstErr atomic.Pointer[string]

	tokens chan struct{} // closed loop: permits for undelivered inputs
	wake   chan struct{} // poked by every result
	sched  *rand.Rand    // open loop: the Poisson schedule

	gcWake                      chan struct{}
	gcDone                      chan struct{}
	gcPending                   atomic.Int64 // passes requested and not yet finished
	gcOff                       atomic.Bool  // the replay batch keeps its messages
	gcPasses, gcNs, gcCollected atomic.Int64
	gcErrs                      atomic.Int64

	setupTime time.Duration
}

// setUp opens a node in dir and brings it to the state the measurements
// start from. Its duration is one sample of setup_s.
func setUp(w *workload, seed uint64, dir string) (*run, error) {
	t0 := time.Now()
	r := &run{w: w, seed: seed, tr: newTracer(), wake: make(chan struct{}, 1),
		sched: rand.New(rand.NewPCG(seed, 0x5c4ed)), gcDone: make(chan struct{})}
	r.sk = &sink{tr: r.tr, marker: []byte(w.outMarker), onResult: r.onResult}
	if w.rate == 0 {
		r.tokens = make(chan struct{}, w.inFlight)
		for i := 0; i < w.inFlight; i++ {
			r.tokens <- struct{}{}
		}
	}
	n, err := openNode(w, dir, r.tr, r.sk, &r.admitted)
	if err != nil {
		return nil, err
	}
	r.node = n
	if w.gcEvery > 0 {
		r.gcWake = make(chan struct{}, 1)
		go r.gcLoop()
	} else {
		close(r.gcDone)
	}
	fail := func(err error) (*run, error) {
		_ = r.close()
		return nil, err
	}
	if w.preload != nil {
		if err := w.preload(r); err != nil {
			return fail(err)
		}
	}
	if r.cl, err = w.connect(r); err != nil {
		return fail(err)
	}
	if err := r.drive(w.warmup, nil); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	r.setupTime = time.Since(t0)
	return r, nil
}

func (r *run) close() error {
	if r.cl != nil {
		r.cl.close()
	}
	if r.gcWake != nil {
		close(r.gcWake)
	}
	<-r.gcDone
	return r.node.close()
}

func (r *run) noteErr(err error) {
	s := err.Error()
	r.firstErr.CompareAndSwap(nil, &s)
}

func (r *run) onResult() {
	if r.tokens != nil {
		r.tokens <- struct{}{}
	}
	if r.gcWake != nil && !r.gcOff.Load() && r.sk.delivered.Load()%int64(r.w.gcEvery) == 0 {
		r.gcPending.Add(1)
		select {
		case r.gcWake <- struct{}{}:
		default: // a pass is already requested
			r.gcPending.Add(-1)
		}
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// gcLoop runs the retention collector when the sink has seen gcEvery more
// results. Retention is driven by count, not by a timer: without it the
// procurement run is quadratic, and with a timer it is noisy. The pass runs
// on a quiescent node: the loop first takes every permit, so that no input
// is under way, and hands them back afterwards. A pass concurrent with rule
// evaluation — which is how the engine's own timer runs it — now and then
// removes a message between a rule's qs:queue() listing and its fetch, and
// the rule fails with "message not found" (1 run in 40; README, found while
// building).
func (r *run) gcLoop() {
	defer close(r.gcDone)
	for range r.gcWake {
		for i := 0; i < r.w.inFlight; i++ {
			<-r.tokens
		}
		e := r.node.engine()
		e.Drain(drainTimeout)
		t0 := time.Now()
		n, err := e.CollectGarbage()
		if err != nil {
			r.noteErr(fmt.Errorf("CollectGarbage: %w", err))
			r.gcErrs.Add(1)
		} else {
			r.gcNs.Add(int64(time.Since(t0)))
			r.gcCollected.Add(int64(n))
			r.gcPasses.Add(1)
		}
		for i := 0; i < r.w.inFlight; i++ {
			r.tokens <- struct{}{}
		}
		r.gcPending.Add(-1)
	}
}

// sendOne issues the next input. due is its scheduled time in an open
// loop and zero in a closed one.
func (r *run) sendOne(due time.Time) {
	id := int(r.nextID.Add(1) - 1)
	payload, expect := r.w.input(r, inputRNG(r.seed, id), id)
	rec := r.tr.rec(id)
	rec.expect = expect
	rec.traced.Store(r.tr.on.Load())
	r.wire.Add(int64(len(payload)))
	if due.IsZero() {
		rec.sent.Store(r.tr.now())
	} else {
		rec.lag.Store(int64(time.Since(due)))
		rec.sent.Store(r.tr.at(due))
	}
	r.cl.send([]byte(payload), func(err error) {
		if err != nil {
			r.noteErr(fmt.Errorf("input %d: %w", id, err))
			r.ackErrs.Add(1)
			if r.tokens != nil {
				r.tokens <- struct{}{} // no result will return this permit
			}
			return
		}
		rec.acked.Store(r.tr.now())
		r.admitted.Add(1)
	})
}

// drive issues inputs — limit of them, or until stop is closed when limit
// is 0 — and then waits until every one of them has been delivered to the
// sink.
func (r *run) drive(limit int, stop <-chan struct{}) error {
	if r.w.rate > 0 {
		r.driveOpen(limit, stop)
	} else {
		r.driveClosed(limit, stop)
	}
	return r.awaitDelivery()
}

func (r *run) driveClosed(limit int, stop <-chan struct{}) {
	var left atomic.Int64
	left.Store(int64(limit))
	var wg sync.WaitGroup
	for i := 0; i < r.w.clients; i++ {
		wg.Add(1)
		// The think time of client i is its own seeded sequence.
		var think *rand.Rand
		if r.w.think > 0 {
			think = rand.New(rand.NewPCG(r.seed, 0x7417c<<8|uint64(i)))
		}
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-r.tokens:
				}
				if limit > 0 && left.Add(-1) < 0 {
					r.tokens <- struct{}{}
					return
				}
				if think != nil {
					time.Sleep(time.Duration(think.Int64N(int64(r.w.think))))
				}
				r.sendOne(time.Time{})
			}
		}()
	}
	wg.Wait()
}

// driveOpen issues inputs on the seeded schedule: in every second exactly
// rate arrivals at independent uniform times — a Poisson process conditioned
// on its count per second, so the gaps and bursts are random but two runs
// offer the same load to within one input per second.
func (r *run) driveOpen(limit int, stop <-chan struct{}) {
	start := time.Now()
	perSecond := int(r.w.rate)
	offsets := make([]float64, perSecond)
	for n, sec := 0, 0; ; sec++ {
		for i := range offsets {
			offsets[i] = r.sched.Float64()
		}
		sort.Float64s(offsets)
		for _, off := range offsets {
			due := start.Add(time.Duration((float64(sec) + off) * float64(time.Second)))
			if limit > 0 && n >= limit {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			select {
			case <-stop:
				return
			default:
			}
			r.sendOne(due)
			n++
		}
	}
}

// outstanding is the number of issued inputs with neither a correct result
// nor an admission failure yet.
func (r *run) outstanding() int64 {
	return r.nextID.Load() - r.sk.delivered.Load() - r.ackErrs.Load()
}

// awaitDelivery returns once every issued input is delivered and no
// retention pass is running, so the node may be restarted or closed.
func (r *run) awaitDelivery() error {
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for r.outstanding() > 0 || r.gcPending.Load() > 0 {
		select {
		case <-r.wake:
		case <-time.After(10 * time.Millisecond): // an admission failure pokes nothing
		case <-deadline.C:
			return fmt.Errorf("%d inputs still undelivered after %s", r.outstanding(), drainTimeout)
		}
	}
	return nil
}

// snapshot is every counter the harness reads, taken at a window boundary.
type snapshot struct {
	at        int64 // tracer time
	nextID    int64
	delivered int64
	wire      int64

	eng engine.Stats
	ps  store.Stats
	ms  msgstore.Stats
	dev [numClasses]ioCounters

	gcPasses, gcNs, gcCollected int64

	cpu                        time.Duration
	mallocs, allocBytes, gcPau uint64

	host hostCPU
}

func (w window) calm() bool { return calm(w.begin.host, w.end.host) }

func (r *run) snapshot() snapshot {
	e := r.node.engine()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return snapshot{
		at: r.tr.now(), nextID: r.nextID.Load(), delivered: r.sk.delivered.Load(), wire: r.wire.Load(),
		eng: e.Stats(), ps: e.MessageStore().PageStore().Stats(), ms: e.MessageStore().Stats(),
		dev:      r.node.dev.snapshot(),
		gcPasses: r.gcPasses.Load(), gcNs: r.gcNs.Load(), gcCollected: r.gcCollected.Load(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: mem.Mallocs, allocBytes: mem.TotalAlloc, gcPau: mem.PauseTotalNs,
		host: readHostCPU(),
	}
}

// window is one measured sub-window: the snapshots at its two boundaries.
type window struct {
	traced     bool
	begin, end snapshot
}

func (w window) seconds() float64 { return float64(w.end.at-w.begin.at) / 1e9 }

// flushMs is the mean time of the window's flushes, which the device holds
// at flushLatency; printed beside the metrics so that a run in which it
// could not shows.
func (w window) flushMs() float64 {
	var syncs, ns int64
	for c := range w.end.dev {
		d := w.end.dev[c].sub(w.begin.dev[c])
		syncs, ns = syncs+d.Syncs, ns+d.SyncNs
	}
	return float64(ns) / 1e6 / float64(max(syncs, 1))
}

// sampler holds what is polled during traced windows only.
type sampler struct {
	backlogSum, backlogN, backlogMax int64
	heapPeak                         uint64
}

// An untraced run measures sub-windows until calmWindows of them are calm,
// and at most maxWindows; a traced run, whose per-layer numbers carry no
// bound, always measures tracedPlan.
const (
	calmWindows = 5
	maxWindows  = 10
)

var tracedPlan = []bool{false, true, false, true}

// measure drives the workload through sub-windows of length sub. The load
// runs through without a pause; the sub-windows are boundaries in time.
func (r *run) measure(sub time.Duration, traced bool) ([]window, sampler, error) {
	var wins []window
	var smp sampler
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		begin, end := r.snapshot(), time.Now()
		for k, calmSeen := 0, 0; ; k++ {
			on := traced && tracedPlan[k]
			r.tr.on.Store(on)
			end = end.Add(sub)
			for time.Now().Before(end) {
				if !on {
					time.Sleep(time.Until(end))
					break
				}
				// Traced: sample backlog and heap every 50 ms.
				time.Sleep(min(50*time.Millisecond, time.Until(end)))
				b := int64(r.node.engine().Stats().Backlog)
				smp.backlogSum += b
				smp.backlogN++
				smp.backlogMax = max(smp.backlogMax, b)
				metrics.Read(heap)
				smp.heapPeak = max(smp.heapPeak, heap[0].Value.Uint64())
			}
			win := window{traced: on, begin: begin, end: r.snapshot()}
			wins = append(wins, win)
			begin = win.end
			if win.calm() {
				calmSeen++
			}
			if traced && len(wins) == len(tracedPlan) ||
				!traced && (calmSeen == calmWindows || len(wins) == maxWindows) {
				break
			}
		}
		r.tr.on.Store(false)
	}()
	err := r.drive(0, stop) // returns once stop is closed, so wins is complete
	return wins, smp, err
}

// latencies of the inputs whose result arrived in one window.
type latencies struct {
	ack, e2e []float64 // ms, sorted
	late     int       // open loop: sends started more than lateAfter behind their due time
}

func (l latencies) lateShare() float64 {
	if len(l.e2e) == 0 {
		return 0
	}
	return float64(l.late) / float64(len(l.e2e))
}

// collect attributes every input in [lo, hi) to the window its result
// arrived in.
func (r *run) collect(wins []window, lo, hi int) []latencies {
	out := make([]latencies, len(wins))
	for id := lo; id < hi; id++ {
		rec := r.tr.rec(id)
		sent, acked, done := rec.sent.Load(), rec.acked.Load(), rec.done.Load()
		if acked == 0 || done == 0 {
			continue
		}
		for k := range wins {
			if done >= wins[k].begin.at && done < wins[k].end.at {
				out[k].ack = append(out[k].ack, float64(acked-sent)/1e6)
				out[k].e2e = append(out[k].e2e, float64(done-sent)/1e6)
				if rec.lag.Load() > int64(lateAfter) {
					out[k].late++
				}
				break
			}
		}
	}
	for k := range out {
		sort.Float64s(out[k].ack)
		sort.Float64s(out[k].e2e)
	}
	return out
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailMean is the mean of a sorted sample between its 80th and its 98th
// percentile: the tail without the stragglers, and unlike a quantile a
// smooth function of the sample (metrics.go).
func tailMean(sorted []float64) float64 {
	n := len(sorted)
	return mean(sorted[n*80/100 : max(n*98/100, n*80/100+min(n, 1))])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// verify counts every way an input can have gone wrong after the node has
// drained: admission errors and refusals, missing, duplicate, unknown and
// wrong-content results, messages in error queues, engine errors, shed
// ingest and anything the engine logged at warning level or above.
func (r *run) verify() (failed int64, detail string) {
	e := r.node.engine()
	st := e.Stats()
	errQueued := 0
	for _, q := range e.MessageStore().QueueNames() {
		if q == errorQueue || q == engine.SystemErrorQueue || q == "crmErrors" {
			msgs, err := e.MessageStore().Messages(q)
			if err != nil {
				r.noteErr(err)
				errQueued++
			}
			errQueued += len(msgs)
		}
	}
	missing := max(r.outstanding(), 0)
	failed = r.ackErrs.Load() + r.gcErrs.Load() + missing + r.sk.dups.Load() + r.sk.wrong.Load() + r.sk.unknown.Load() +
		int64(errQueued) + int64(st.Errors) + int64(st.IngestShed) + r.node.logs.problems.Load()
	if failed == 0 {
		return 0, ""
	}
	detail = fmt.Sprintf("admission errors %d, retention errors %d, missing %d, duplicate %d, wrong %d, unknown %d, error-queue messages %d, engine errors %d, shed %d, logged problems %d",
		r.ackErrs.Load(), r.gcErrs.Load(), missing, r.sk.dups.Load(), r.sk.wrong.Load(), r.sk.unknown.Load(),
		errQueued, st.Errors, st.IngestShed, r.node.logs.problems.Load())
	if p := r.firstErr.Load(); p != nil {
		detail += "; first client error: " + *p
	}
	if r.sk.firstErr != "" {
		detail += "; first sink error: " + r.sk.firstErr
	}
	if r.node.logs.first != "" {
		detail += "; first log: " + r.node.logs.first
	}
	return failed, detail
}

// freshDir returns an empty directory under the benchmark's data root.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
