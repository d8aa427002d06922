package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPTransport is the real network binding: messages are POSTed as the
// request body with their properties in X-Demaq-Property headers — the shape
// of the paper's SOAP/HTTP binding without the envelope ceremony. Addresses
// have the form "http://host:port/path". One HTTPTransport can both serve
// local endpoints (it runs one shared listener per host:port it subscribes
// on) and send to remote ones.
type HTTPTransport struct {
	mu        sync.Mutex
	client    *http.Client
	opts      HTTPOptions
	servers   map[string]*httpServer // host:port → server
	endpoints map[string]Handler     // full address → handler

	bodies      sync.Pool // *[]byte request-body read buffers
	pooledBytes atomic.Uint64
}

type httpServer struct {
	ln  net.Listener
	srv *http.Server
}

// HTTPOptions bounds the transport's exposure to slow or oversized peers.
// Zero values take the defaults below.
type HTTPOptions struct {
	// ReadTimeout / WriteTimeout / IdleTimeout are applied to every
	// listener the transport starts; a peer that trickles a request body
	// or never drains a response cannot pin a connection forever.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// MaxHeaderBytes caps request header size (http.Server semantics).
	MaxHeaderBytes int
	// MaxBodyBytes caps the request body; larger ingests are rejected
	// with 413 Request Entity Too Large before the handler runs.
	MaxBodyBytes int64
}

// Defaults for HTTPOptions zero values.
const (
	DefaultHTTPReadTimeout    = 30 * time.Second
	DefaultHTTPWriteTimeout   = 30 * time.Second
	DefaultHTTPIdleTimeout    = 2 * time.Minute
	DefaultHTTPMaxHeaderBytes = 1 << 20
	DefaultHTTPMaxBodyBytes   = 64 << 20
)

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = DefaultHTTPReadTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultHTTPWriteTimeout
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultHTTPIdleTimeout
	}
	if o.MaxHeaderBytes <= 0 {
		o.MaxHeaderBytes = DefaultHTTPMaxHeaderBytes
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultHTTPMaxBodyBytes
	}
	return o
}

// NewHTTPTransport creates an HTTP transport with default limits.
func NewHTTPTransport() *HTTPTransport {
	return NewHTTPTransportOptions(HTTPOptions{})
}

// NewHTTPTransportOptions creates an HTTP transport with explicit limits.
func NewHTTPTransportOptions(opts HTTPOptions) *HTTPTransport {
	return &HTTPTransport{
		client:    &http.Client{Timeout: 30 * time.Second},
		opts:      opts.withDefaults(),
		servers:   map[string]*httpServer{},
		endpoints: map[string]Handler{},
	}
}

// Scheme implements Transport.
func (t *HTTPTransport) Scheme() string { return "http" }

// Properties travel as one "X-Demaq-Property: name=value" header line each,
// name and value query-escaped. A property name cannot be a header name:
// header names are case-insensitive (Go canonicalizes "demaq-rm-seq" to
// "Demaq-Rm-Seq") and exclude the ':' of "demaq:rule". Hand-written clients
// may still send "X-Demaq-<Name>: value" for names that survive that.
const (
	headerPrefix   = "X-Demaq-"
	PropertyHeader = headerPrefix + "Property"
)

// EncodeProperty renders one property as a PropertyHeader value.
func EncodeProperty(name, value string) string {
	return url.QueryEscape(name) + "=" + url.QueryEscape(value)
}

// decodeProperties reads the properties of a request.
func decodeProperties(h http.Header) (map[string]string, error) {
	props := map[string]string{}
	for k, vs := range h {
		if k != PropertyHeader && strings.HasPrefix(k, headerPrefix) && len(vs) > 0 {
			props[k[len(headerPrefix):]] = vs[0]
		}
	}
	for _, line := range h[PropertyHeader] {
		name, value, ok := strings.Cut(line, "=")
		name, nerr := url.QueryUnescape(name)
		value, verr := url.QueryUnescape(value)
		if !ok || nerr != nil || verr != nil {
			return nil, fmt.Errorf("gateway: malformed %s header %q", PropertyHeader, line)
		}
		props[name] = value
	}
	return props, nil
}

// Send implements Transport.
func (t *HTTPTransport) Send(dest string, payload []byte, props map[string]string) error {
	req, err := http.NewRequest(http.MethodPost, dest, strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	for k, v := range props {
		req.Header.Add(PropertyHeader, EncodeProperty(k, v))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return ErrDisconnected
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("gateway: http endpoint returned %s", resp.Status)
	}
	return nil
}

// Subscribe implements Transport: it lazily starts a listener for the
// address's host:port and routes by path.
func (t *HTTPTransport) Subscribe(addr string, h Handler) (func(), error) {
	hostPort, _, err := splitHTTPAddr(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.endpoints[addr]; dup {
		return nil, fmt.Errorf("gateway: endpoint %s already subscribed", addr)
	}
	if _, ok := t.servers[hostPort]; !ok {
		ln, err := net.Listen("tcp", hostPort)
		if err != nil {
			return nil, err
		}
		srv := &http.Server{
			Handler:        http.HandlerFunc(t.serve),
			ReadTimeout:    t.opts.ReadTimeout,
			WriteTimeout:   t.opts.WriteTimeout,
			IdleTimeout:    t.opts.IdleTimeout,
			MaxHeaderBytes: t.opts.MaxHeaderBytes,
		}
		t.servers[hostPort] = &httpServer{ln: ln, srv: srv}
		go srv.Serve(ln)
	}
	t.endpoints[addr] = h
	return func() {
		t.mu.Lock()
		delete(t.endpoints, addr)
		t.mu.Unlock()
	}, nil
}

// Close shuts down all listeners.
func (t *HTTPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.servers {
		s.srv.Close()
	}
	t.servers = map[string]*httpServer{}
}

// Pooled body buffers are returned to the pool only below this capacity:
// the occasional huge request must not pin its allocation forever.
const maxPooledBody = 1 << 20

// IngestBytesPooled reports how many request-body bytes were read through
// recycled buffers (surfaced as engine Stats.IngestBytesPooled).
func (t *HTTPTransport) IngestBytesPooled() uint64 { return t.pooledBytes.Load() }

// readBody reads r fully into buf (grown as needed), mirroring
// io.ReadAll without the fresh allocation per request.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (t *HTTPTransport) serve(w http.ResponseWriter, r *http.Request) {
	addr := "http://" + r.Host + r.URL.Path
	t.mu.Lock()
	h, ok := t.endpoints[addr]
	t.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	// Read the body into a pooled buffer. Handlers receive the buffer for
	// the duration of the call only: the engine's streaming ingest copies
	// everything it keeps, so the buffer is recycled as soon as the
	// handler returns.
	bp, _ := t.bodies.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 64<<10)
		bp = &b
	}
	// Read one byte past the limit so an at-limit body is distinguishable
	// from an oversized one.
	body, err := readBody(io.LimitReader(r.Body, t.opts.MaxBodyBytes+1), (*bp)[:0])
	*bp = body[:0]
	if err != nil {
		t.bodies.Put(bp)
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	if int64(len(body)) > t.opts.MaxBodyBytes {
		t.bodies.Put(bp)
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	props, err := decodeProperties(r.Header)
	if err != nil {
		t.bodies.Put(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Remote address as the sender when the peer did not identify itself.
	if props["Sender"] == "" {
		props["Sender"] = "http://" + r.RemoteAddr
	}
	herr := h(body, props)
	t.pooledBytes.Add(uint64(len(body)))
	if cap(body) <= maxPooledBody {
		t.bodies.Put(bp)
	}
	if errors.Is(herr, ErrOverloaded) {
		// Backlog full on a healthy node: the client should retry the same
		// request shortly. Checked before ErrUnavailable — overload wraps
		// neither, but the order documents that 429 is the more specific
		// verdict.
		w.Header().Set("Retry-After", "1")
		http.Error(w, herr.Error(), http.StatusTooManyRequests)
		return
	}
	if errors.Is(herr, ErrUnavailable) {
		// Degraded node: shed ingest and tell the sender when to retry.
		w.Header().Set("Retry-After", "5")
		http.Error(w, herr.Error(), http.StatusServiceUnavailable)
		return
	}
	if herr != nil {
		http.Error(w, herr.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func splitHTTPAddr(addr string) (hostPort, path string, err error) {
	rest, ok := strings.CutPrefix(addr, "http://")
	if !ok {
		return "", "", fmt.Errorf("gateway: not an http address: %s", addr)
	}
	i := strings.Index(rest, "/")
	if i < 0 {
		return rest, "/", nil
	}
	return rest[:i], rest[i:], nil
}
