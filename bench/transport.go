package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"demaq/internal/gateway"
)

// rmAckProp marks a WS-RM acknowledgement transfer (gateway/reliable.go's
// wire property); acks pass the seams unmetered.
const rmAckProp = "demaq-rm-ack"

// idAfter parses the decimal input id that follows marker in an XML
// payload, or -1. Every workload puts the id of the input behind a fixed
// marker in both its inputs and its results, so the seams can attribute a
// transfer to an input without parsing the document.
func idAfter(payload, marker []byte) int {
	i := bytes.Index(payload, marker)
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, c := range payload[i+len(marker):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

// meteredTransport is the gateway.Transport the node's registry holds: the
// real transport with the node's incoming handlers and outgoing sends
// counted always and timestamped per input while tracing is on. The
// clients and the sink use the unwrapped transport, so only the node's own
// calls are metered.
type meteredTransport struct {
	base      gateway.Transport
	tr        *tracer
	inMarker  []byte // id marker of input payloads
	outMarker []byte // id marker of result payloads

	admits atomic.Int64 // incoming handler calls carrying a payload
	sends  atomic.Int64 // outgoing sends carrying a payload

	// Outgoing sender cycle: start-to-start time of consecutive sends that
	// began while another admitted input was already waiting to be sent.
	cycleMu   sync.Mutex
	lastStart int64
	lastBusy  bool
	cycles    []int64
	admitted  *atomic.Int64 // inputs acked to clients (shared with the run)
}

func (m *meteredTransport) Scheme() string { return m.base.Scheme() }

func (m *meteredTransport) Send(dest string, payload []byte, props map[string]string) error {
	if _, isAck := props[rmAckProp]; isAck {
		return m.base.Send(dest, payload, props)
	}
	started := m.sends.Add(1)
	if !m.tr.on.Load() {
		return m.base.Send(dest, payload, props)
	}
	rec := m.tr.lookup(idAfter(payload, m.outMarker))
	start := m.tr.now()
	m.cycleMu.Lock()
	if m.lastBusy && m.lastStart != 0 {
		m.cycles = append(m.cycles, start-m.lastStart)
	}
	m.lastStart, m.lastBusy = start, m.admitted.Load()-started >= 1
	m.cycleMu.Unlock()
	err := m.base.Send(dest, payload, props)
	if rec != nil && rec.outStart.CompareAndSwap(0, start) { // a retransmit keeps the first send's span
		rec.outEnd.Store(m.tr.now())
	}
	return err
}

func (m *meteredTransport) Subscribe(addr string, h gateway.Handler) (func(), error) {
	return m.base.Subscribe(addr, func(payload []byte, props map[string]string) error {
		if _, isAck := props[rmAckProp]; isAck {
			return h(payload, props)
		}
		m.admits.Add(1)
		var rec *inputRec
		var start int64
		if m.tr.on.Load() {
			// Resolve the input before the handler runs: the payload buffer
			// is the transport's and is recycled once the handler returns.
			rec = m.tr.lookup(idAfter(payload, m.inMarker))
			start = m.tr.now()
		}
		err := h(payload, props)
		if rec != nil && rec.admitStart.CompareAndSwap(0, start) {
			rec.admitEnd.Store(m.tr.now())
		}
		return err
	})
}

// sink is the remote receiver behind the node's outgoing gateway queue: an
// in-process sim:// endpoint, so completion is pushed to the harness and
// never polled. It verifies every result against the generator's model and
// counts anything that is not exactly one correct result per input.
type sink struct {
	tr     *tracer
	marker []byte

	delivered atomic.Int64 // correct first results
	unknown   atomic.Int64 // results naming no issued input
	wrong     atomic.Int64 // results whose content differs from the model
	dups      atomic.Int64 // second and later results for one input

	onResult func() // called once per correct first result

	errMu    sync.Mutex
	firstErr string
}

func (s *sink) fail(counter *atomic.Int64, format string, args ...any) {
	counter.Add(1)
	s.errMu.Lock()
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf(format, args...)
	}
	s.errMu.Unlock()
}

func (s *sink) handle(payload []byte, _ map[string]string) error {
	start := s.tr.now()
	id := idAfter(payload, s.marker)
	rec := s.tr.lookup(id)
	if rec == nil || rec.sent.Load() == 0 {
		s.fail(&s.unknown, "result for unknown input: %.120s", payload)
		return nil
	}
	if rec.results.Add(1) > 1 {
		s.fail(&s.dups, "duplicate result for input %d", id)
		return nil
	}
	if string(payload) != rec.expect {
		s.fail(&s.wrong, "input %d: got %.200s want %.200s", id, payload, rec.expect)
		return nil
	}
	if rec.traced.Load() {
		rec.sinkStart.Store(start)
	}
	rec.done.Store(s.tr.now())
	s.delivered.Add(1)
	s.onResult()
	return nil
}

// inputRNG returns the generator of one input: a function of the run seed
// and the input id alone, so the same seed gives the same inputs whatever
// the interleaving of the clients.
func inputRNG(seed uint64, id int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(id)+1))
}

const padAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "

// pad returns n bytes of seeded filler text.
func pad(rng *rand.Rand, n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = padAlphabet[rng.IntN(len(padAlphabet))]
	}
	return string(b)
}
