package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// inputRec is the timeline of one input. sent, acked and done are always
// recorded (they are the end-to-end metrics); the four seam timestamps
// between them only while tracing is on. All values are nanoseconds since
// the tracer's base; zero means "not reached".
type inputRec struct {
	sent  atomic.Int64 // client send; in an open loop the due time
	acked atomic.Int64 // durable admission ack back at the client
	done  atomic.Int64 // verified result observed at the sink

	admitStart, admitEnd atomic.Int64 // node's incoming handler
	outStart, outEnd     atomic.Int64 // node's outgoing Transport.Send
	sinkStart            atomic.Int64 // sink handler entry

	// lag is how far behind its due time the open-loop generator started
	// the send; zero in a closed loop.
	lag atomic.Int64

	results atomic.Int32 // results seen for this input (exactly one is correct)
	traced  atomic.Bool

	// expect is the result the generator's model predicts, byte for byte.
	// Written before sent is stored and read after sent is loaded.
	expect string
}

const recChunk = 4096

// tracer owns the per-input timelines and the device-op spans. The
// timelines are a chunked table indexed by input id so that recording a
// timestamp is one atomic store and never takes a lock.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu     sync.Mutex
	chunks atomic.Pointer[[]*[recChunk]inputRec]

	devMu  sync.Mutex
	devOps []deviceSpan
}

type deviceSpan struct {
	name       string
	class      fileClass
	start, end int64
	bytes      int
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	empty := []*[recChunk]inputRec{}
	t.chunks.Store(&empty)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// rec returns the timeline of input id, growing the table as needed.
func (t *tracer) rec(id int) *inputRec {
	ci, off := id/recChunk, id%recChunk
	chunks := *t.chunks.Load()
	if ci >= len(chunks) {
		t.mu.Lock()
		chunks = *t.chunks.Load()
		if ci >= len(chunks) {
			grown := append([]*[recChunk]inputRec(nil), chunks...)
			for len(grown) <= ci {
				grown = append(grown, new([recChunk]inputRec))
			}
			t.chunks.Store(&grown)
			chunks = grown
		}
		t.mu.Unlock()
	}
	return &chunks[ci][off]
}

// lookup is rec for ids that arrive from outside (parsed from a payload):
// an id that was never issued has no timeline.
func (t *tracer) lookup(id int) *inputRec {
	if id < 0 || id/recChunk >= len(*t.chunks.Load()) {
		return nil
	}
	return t.rec(id)
}

// deviceOp records one device operation as a parentless span.
func (t *tracer) deviceOp(name string, class fileClass, start time.Time, bytes int) {
	if t == nil || !t.on.Load() {
		return
	}
	s := deviceSpan{name, class, t.at(start), t.now(), bytes}
	t.devMu.Lock()
	t.devOps = append(t.devOps, s)
	t.devMu.Unlock()
}

// span is one interval of an input's timeline. parent names the span of the
// same input that caused it ("" for the root).
type span struct {
	name, parent string
	start, end   int64
}

// spans derives the span tree of one traced input from its timeline:
//
//	input                     sent → done
//	├─ client.send            sent → acked
//	│  └─ gateway.admit_handler   node's incoming handler (deliver → commit)
//	├─ engine.pipeline_gap    admission end → outgoing send start
//	└─ gateway.out_send       node's outgoing Transport.Send
//	   └─ sink.recv           sink handler entry → verified
//
// Workloads that enqueue in process have no admit handler; their
// pipeline gap starts at the ack.
func (r *inputRec) spans() []span {
	sent, acked, done := r.sent.Load(), r.acked.Load(), r.done.Load()
	if acked == 0 || done == 0 {
		return nil
	}
	out := []span{{"input", "", sent, done}, {"client.send", "input", sent, acked}}
	admitted := acked
	if s, e := r.admitStart.Load(), r.admitEnd.Load(); s != 0 && e != 0 {
		out = append(out, span{"gateway.admit_handler", "client.send", s, e})
		admitted = e
	}
	s, e := r.outStart.Load(), r.outEnd.Load()
	if s == 0 || e == 0 {
		return out
	}
	out = append(out, span{"engine.pipeline_gap", "input", admitted, s},
		span{"gateway.out_send", "input", s, e})
	if rs := r.sinkStart.Load(); rs != 0 {
		out = append(out, span{"sink.recv", "gateway.out_send", rs, done})
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64, len(spans))
	for _, p := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.parent != p.name {
				continue
			}
			lo, hi := max(c.start, p.start), min(c.end, p.end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		self[p.name] = max(p.end-p.start, 0) - covered(kids)
	}
	return self
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := int64(math.MinInt64)
	for _, v := range iv {
		switch {
		case v[0] > end:
			total += v[1] - v[0]
			end = v[1]
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeJSONL writes every span of the traced inputs in [lo, hi) and every
// device op, one JSON object per line.
func (t *tracer) writeJSONL(path string, lo, hi int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string  `json:"name"`
		Input   *int    `json:"input,omitempty"`
		Parent  string  `json:"parent,omitempty"`
		Class   string  `json:"class,omitempty"`
		Bytes   int     `json:"bytes,omitempty"`
		StartUs float64 `json:"start_us"`
		EndUs   float64 `json:"end_us"`
	}
	// A write error sticks to w and comes back from Flush; the lines
	// themselves cannot fail to marshal.
	for id := lo; id < hi; id++ {
		r := t.rec(id)
		if !r.traced.Load() {
			continue
		}
		for _, s := range r.spans() {
			id := id
			_ = enc.Encode(line{Name: s.name, Input: &id, Parent: s.parent,
				StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3})
		}
	}
	t.devMu.Lock()
	ops := t.devOps
	t.devMu.Unlock()
	for _, s := range ops {
		_ = enc.Encode(line{Name: s.name, Class: s.class.String(), Bytes: s.bytes,
			StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
