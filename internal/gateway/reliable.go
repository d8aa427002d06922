package gateway

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// Reliable implements at-least-once delivery with receiver-side
// de-duplication over an unreliable Transport — the stand-in for
// WS-ReliableMessaging (paper Sec. 2.1.2). Each message carries a source
// address and sequence number; the receiver acknowledges over the same
// transport and suppresses replays. Senders retransmit until acknowledged
// or the retry budget is exhausted.
//
// The paper notes that reliable sending across system failures requires
// persistent queues: the engine keeps a sent message unprocessed in its
// persistent outgoing gateway queue until the ack arrives, so retransmission
// state survives crashes by construction. The de-duplication and sequencing
// state needs the same treatment — a SessionStore persists the receive
// high-water/window atomically with the enqueue each transfer triggers, and
// the sender's next sequence number in durable reservation blocks — so a
// whole-node crash-restart neither re-admits retransmitted duplicates nor
// reissues sequence numbers from zero.
type Reliable struct {
	tr      Transport
	source  string       // our ack endpoint address
	session SessionStore // nil: in-memory only (single-process lifetime)

	mu       sync.Mutex
	nextSeq  uint64
	pending  map[uint64]*pendingSend
	recv     map[string]*recvState // dedup per remote source
	interval time.Duration
	maxWait  time.Duration
	rng      *rand.Rand // per-sender jitter source (guarded by mu)
	retries  int
	closed   bool
	unsub    func()

	// resMu serializes durable send-block reservations so concurrent
	// senders do not interleave reservation writes out of order.
	resMu    sync.Mutex
	reserved uint64 // exclusive upper bound of the durable seq block

	acked, retransmits, duplicates uint64
}

type pendingSend struct {
	dest    string
	payload []byte
	props   map[string]string
	done    func(error)
	tries   int
	timer   *time.Timer
}

// recvWindowWords sizes the per-peer dedup bitmap: 16 words = 1024 sequence
// numbers below the high-water mark. Bit i (word i/64, bit i%64) is set iff
// sequence high-i was admitted; anything older than the window is treated
// as an already-acknowledged duplicate. The window is the whole per-peer
// state — memory stays flat no matter how many transfers a peer sends.
const recvWindowWords = 16

type recvState struct {
	mu     sync.Mutex // the per-peer admit lock
	high   uint64
	window [recvWindowWords]uint64

	// undurable holds the sequence numbers the window lists as admitted whose
	// admission the handler has not reported durable yet. They are not
	// acknowledged, whoever asks: a retransmit of one of them is dropped, its
	// ack goes out when the original's wait returns. One whose wait failed
	// stays here — the receiver's log is dead, and this endpoint acknowledges
	// nothing it could not make durable.
	undurable map[uint64]struct{}
}

// RecvSession is the externally visible receive-session snapshot: the
// dedup state for one remote peer at one local endpoint.
type RecvSession struct {
	Peer   string
	High   uint64
	Window []uint64
}

// StagedHandler is the two-phase Handler of a receiver that commits ahead of
// its log. The call itself is the first phase and runs under the per-peer
// admit lock: it makes the transfer's effects and sess — the receive session
// as it is once this transfer is admitted — one atomic, ordered, but not yet
// durable fact (a pre-commit), and returns without waiting for the device.
// The returned durable is the second phase, called without the lock: it
// returns nil once that fact survives a crash, and only then is the transfer
// acknowledged. A nil durable means the first phase was durable already.
//
// Since first phases run one at a time per peer, in arrival order, a log
// that keeps a prefix of what was pre-committed always holds a consistent
// window. An error from durable must mean that the log is lost for good:
// the in-memory window already lists the transfer, so it is never
// acknowledged — not to a retransmit either — for the life of the endpoint.
type StagedHandler func(payload []byte, props map[string]string, sess RecvSession) (durable func() error, err error)

// SessionStore persists reliable-session state across restarts. Implemented
// by the engine over the message store; nil keeps the pre-existing
// in-memory behavior.
type SessionStore interface {
	// SendNext returns the durable next sequence number of a local source
	// (0 when the source has never reserved).
	SendNext(source string) uint64
	// ReserveSend durably raises the source's reserved next-seq upper
	// bound (exclusive). It must not return until the reservation is
	// durable: a restarted sender resumes from the bound, so sequence
	// numbers below it must never be issued again.
	ReserveSend(source string, upTo uint64) error
	// RecvSessions returns the persisted receive sessions of a local
	// endpoint, one per remote peer.
	RecvSessions(endpoint string) []RecvSession
}

// sendReserveBlock is how many sequence numbers one durable reservation
// covers; a crash wastes at most one block (sequence gaps are harmless, the
// receive window is gap-tolerant).
const sendReserveBlock = 64

// Property keys used by the reliability protocol.
const (
	propSeq    = "demaq-rm-seq"
	propSource = "demaq-rm-source"
	propAck    = "demaq-rm-ack"
)

// ReliableOptions configure a reliable endpoint beyond the retry schedule.
type ReliableOptions struct {
	RetryInterval time.Duration
	MaxRetries    int
	Session       SessionStore
}

// NewReliable layers reliability over tr. source is the address this side
// listens on for acknowledgements (and, when used bidirectionally, for
// application messages via Subscribe).
func NewReliable(tr Transport, source string, retryInterval time.Duration, maxRetries int) (*Reliable, error) {
	return NewReliableOptions(tr, source, ReliableOptions{RetryInterval: retryInterval, MaxRetries: maxRetries})
}

// NewReliableOptions is NewReliable with a full option set. When a
// SessionStore is given, the sender's sequence counter and the per-peer
// receive windows are restored from it, so the endpoint resumes its
// sessions instead of starting new ones.
func NewReliableOptions(tr Transport, source string, opts ReliableOptions) (*Reliable, error) {
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 50 * time.Millisecond
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 20
	}
	// Each sender jitters its retransmit schedule independently — after a
	// receiver outage, senders seeded alike would otherwise retransmit in
	// lockstep and slam it in synchronized waves.
	h := fnv.New64a()
	h.Write([]byte(source))
	r := &Reliable{
		tr: tr, source: source,
		session:  opts.Session,
		pending:  map[uint64]*pendingSend{},
		recv:     map[string]*recvState{},
		interval: opts.RetryInterval,
		maxWait:  16 * opts.RetryInterval,
		rng:      rand.New(rand.NewPCG(h.Sum64(), uint64(time.Now().UnixNano()))),
		retries:  opts.MaxRetries,
	}
	if r.session != nil {
		if next := r.session.SendNext(source); next > 0 {
			r.nextSeq = next - 1
			r.reserved = next
		}
		for _, s := range r.session.RecvSessions(source) {
			rs := &recvState{high: s.High}
			// Persisted windows elide their all-ones tail (fully-admitted old
			// region), so absent words restore as all-ones: claiming "admitted"
			// for an old sequence re-acks a duplicate, while claiming "fresh"
			// would re-admit it.
			for i := 0; i < recvWindowWords; i++ {
				if i < len(s.Window) {
					rs.window[i] = s.Window[i]
				} else {
					rs.window[i] = ^uint64(0)
				}
			}
			r.recv[s.Peer] = rs
		}
	}
	return r, nil
}

// backoff returns the jittered delay before retransmission number tries:
// capped exponential growth from the base interval, with the second half
// of each step randomized per sender. Called with r.mu held (the rng is
// not concurrency-safe).
func (r *Reliable) backoff(tries int) time.Duration {
	d := r.interval
	for i := 1; i < tries && d < r.maxWait; i++ {
		d *= 2
	}
	if d > r.maxWait {
		d = r.maxWait
	}
	return d/2 + time.Duration(r.rng.Int64N(int64(d/2)+1))
}

// Stats returns (acked sends, retransmissions, duplicate receives).
func (r *Reliable) Stats() (acked, retransmits, duplicates uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked, r.retransmits, r.duplicates
}

// Close cancels pending retransmissions, failing their completions so no
// caller blocks on a send that will never be acknowledged.
func (r *Reliable) Close() {
	r.mu.Lock()
	r.closed = true
	pending := r.pending
	r.pending = map[uint64]*pendingSend{}
	for _, p := range pending {
		if p.timer != nil {
			p.timer.Stop()
		}
	}
	if r.unsub != nil {
		r.unsub()
		r.unsub = nil
	}
	r.mu.Unlock()
	for _, p := range pending {
		p.done(fmt.Errorf("gateway: reliable layer closed"))
	}
}

// SendAsync transmits payload to dest; done is called exactly once with nil
// after the acknowledgement arrives, or with an error when the retry budget
// is exhausted or the endpoint is disconnected. Sequence numbers are drawn
// from the session counter; with a SessionStore, the number is covered by a
// durable reservation before it reaches the wire.
func (r *Reliable) SendAsync(dest string, payload []byte, props map[string]string, done func(error)) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		done(fmt.Errorf("gateway: reliable layer closed"))
		return
	}
	r.nextSeq++
	seq := r.nextSeq
	r.mu.Unlock()
	if r.session != nil {
		if err := r.reserve(seq); err != nil {
			done(fmt.Errorf("gateway: sequence reservation: %w", err))
			return
		}
	}
	r.sendSeq(dest, seq, payload, props, done)
}

// SendAsyncSeq is SendAsync with a caller-chosen sequence number. The
// engine's outgoing gateways use the durable message ID: a retransmit after
// a crash-restart then reuses the exact sequence number of the pre-crash
// attempt, and the receiver's window recognizes it — the one duplicate a
// restored send counter alone cannot suppress. Caller-chosen and automatic
// sequence numbers must not be mixed on one endpoint.
func (r *Reliable) SendAsyncSeq(dest string, seq uint64, payload []byte, props map[string]string, done func(error)) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		done(fmt.Errorf("gateway: reliable layer closed"))
		return
	}
	if seq > r.nextSeq {
		r.nextSeq = seq
	}
	r.mu.Unlock()
	r.sendSeq(dest, seq, payload, props, done)
}

// reserve extends the durable send block to cover seq. Serialized so
// concurrent senders extend the bound monotonically.
func (r *Reliable) reserve(seq uint64) error {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	if seq < r.reserved {
		return nil
	}
	upTo := seq + sendReserveBlock
	if err := r.session.ReserveSend(r.source, upTo); err != nil {
		return err
	}
	r.reserved = upTo
	return nil
}

func (r *Reliable) sendSeq(dest string, seq uint64, payload []byte, props map[string]string, done func(error)) {
	pr := make(map[string]string, len(props)+2)
	for k, v := range props {
		pr[k] = v
	}
	pr[propSeq] = strconv.FormatUint(seq, 10)
	pr[propSource] = r.source
	ps := &pendingSend{dest: dest, payload: payload, props: pr, done: done}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		done(fmt.Errorf("gateway: reliable layer closed"))
		return
	}
	r.pending[seq] = ps
	r.mu.Unlock()
	r.transmit(seq, ps)
}

func (r *Reliable) transmit(seq uint64, ps *pendingSend) {
	// Check cancellation before touching the transport: once Close has
	// failed the completion, nothing may reach the wire on its behalf.
	r.mu.Lock()
	if _, stillPending := r.pending[seq]; !stillPending || r.closed {
		r.mu.Unlock()
		return
	}
	ps.tries++
	tries := ps.tries
	r.mu.Unlock()

	err := r.tr.Send(ps.dest, ps.payload, ps.props)
	if err == ErrDisconnected {
		// Immediate, permanent failure: report without retrying; the
		// application handles it (deadLink rule in Fig. 10).
		r.finish(seq, err)
		return
	}
	r.mu.Lock()
	if _, stillPending := r.pending[seq]; !stillPending || r.closed {
		r.mu.Unlock()
		return
	}
	if tries > r.retries {
		r.mu.Unlock()
		r.finish(seq, fmt.Errorf("gateway: no acknowledgement after %d attempts", tries-1))
		return
	}
	ps.timer = time.AfterFunc(r.backoff(tries), func() {
		r.mu.Lock()
		_, stillPending := r.pending[seq]
		if stillPending && !r.closed {
			r.retransmits++
		} else {
			stillPending = false
		}
		r.mu.Unlock()
		if stillPending {
			r.transmit(seq, ps)
		}
	})
	r.mu.Unlock()
}

func (r *Reliable) finish(seq uint64, err error) {
	r.mu.Lock()
	ps, ok := r.pending[seq]
	if ok {
		delete(r.pending, seq)
		if ps.timer != nil {
			ps.timer.Stop()
		}
		if err == nil {
			r.acked++
		}
	}
	r.mu.Unlock()
	if ok {
		ps.done(err)
	}
}

// recvStateFor returns (creating if needed) the dedup state of one peer.
func (r *Reliable) recvStateFor(peer string) *recvState {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.recv[peer]
	if rs == nil {
		rs = &recvState{}
		r.recv[peer] = rs
	}
	return rs
}

// isDup reports whether seq was already admitted (or is older than the
// window, which is treated the same: the ack was sent long ago). Called
// with rs.mu held.
func (rs *recvState) isDup(seq uint64) bool {
	if seq > rs.high {
		return false
	}
	d := rs.high - seq
	if d >= recvWindowWords*64 {
		return true
	}
	return rs.window[d/64]&(1<<(d%64)) != 0
}

// admitted returns the window state after admitting seq. Called with rs.mu
// held; does not mutate rs (the caller commits after the handler succeeds).
func (rs *recvState) admitted(seq uint64) (uint64, [recvWindowWords]uint64) {
	high, w := rs.high, rs.window
	if seq > high {
		d := seq - high
		if d >= recvWindowWords*64 {
			w = [recvWindowWords]uint64{}
		} else {
			shift := int(d / 64)
			bits := uint(d % 64)
			for i := recvWindowWords - 1; i >= 0; i-- {
				var v uint64
				if i >= shift {
					v = w[i-shift] << bits
					if bits > 0 && i-shift-1 >= 0 {
						v |= w[i-shift-1] >> (64 - bits)
					}
				}
				w[i] = v
			}
		}
		high = seq
		w[0] |= 1
	} else {
		d := high - seq
		w[d/64] |= 1 << (d % 64)
	}
	return high, w
}

// Subscribe registers the receiving side with a handler that is done — its
// effects durable — when it returns; see SubscribeStaged.
func (r *Reliable) Subscribe(h Handler) error {
	return r.SubscribeStaged(func(payload []byte, props map[string]string, _ RecvSession) (func() error, error) {
		return nil, h(payload, props)
	})
}

// SubscribeStaged registers the receiving side: application messages are
// de-duplicated, handed to h and acknowledged; acknowledgements complete
// pending sends. The per-peer admit lock covers the dedup check, the
// handler's first phase and the window update — so two concurrent deliveries
// of the same retransmitted transfer cannot both pass the check, and
// snapshots are staged in the order the window grew — and nothing else: the
// wait for the receiver's log and the ack transfer happen after the unlock,
// so the transfers of one session in flight together share a flush.
func (r *Reliable) SubscribeStaged(h StagedHandler) error {
	unsub, err := r.tr.Subscribe(r.source, func(payload []byte, props map[string]string) error {
		if ackStr, isAck := props[propAck]; isAck {
			seq, err := strconv.ParseUint(ackStr, 10, 64)
			if err == nil {
				r.finish(seq, nil)
			}
			return nil
		}
		seqStr, hasSeq := props[propSeq]
		source := props[propSource]
		if !hasSeq || source == "" {
			// Not a reliable-protocol message; deliver as-is.
			durable, err := h(payload, props, RecvSession{})
			if err == nil && durable != nil {
				err = durable()
			}
			return err
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			return fmt.Errorf("gateway: bad sequence number %q", seqStr)
		}
		ack := func() { _ = r.tr.Send(source, nil, map[string]string{propAck: seqStr}) }
		rs := r.recvStateFor(source)
		rs.mu.Lock()
		if rs.isDup(seq) {
			_, undurable := rs.undurable[seq]
			rs.mu.Unlock()
			r.mu.Lock()
			r.duplicates++
			r.mu.Unlock()
			if !undurable {
				// Re-acknowledge: the previous ack may have been lost.
				ack()
			}
			return nil
		}
		high, w := rs.admitted(seq)
		durable, err := h(payload, props, RecvSession{Peer: source, High: high, Window: w[:]})
		if err != nil {
			rs.mu.Unlock()
			// No ack: the sender retransmits and the message is retried.
			return err
		}
		rs.high, rs.window = high, w
		if durable != nil {
			if rs.undurable == nil {
				rs.undurable = map[uint64]struct{}{}
			}
			rs.undurable[seq] = struct{}{}
		}
		rs.mu.Unlock()
		if durable != nil {
			if err := durable(); err != nil {
				return err
			}
			rs.mu.Lock()
			delete(rs.undurable, seq)
			rs.mu.Unlock()
		}
		ack()
		return nil
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.unsub = unsub
	r.mu.Unlock()
	return nil
}
