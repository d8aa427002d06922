package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/store"
	"demaq/internal/xmldom"
)

// node is the system under test with everything the harness puts around
// it: one engine (2 workers, default batch size, durable commits, durable
// sessions) on the modelled device, metered transports in its registry,
// and the sink behind its outgoing gateway queue.
type node struct {
	dir string
	cfg engine.Config
	app *qdl.Application
	eng atomic.Pointer[engine.Engine]

	dev      *device
	net      *gateway.Network       // unmetered; the clients and the sink attach here
	http     *gateway.HTTPTransport // nil unless the workload has a socket path
	httpAddr string
	sim      *meteredTransport
	httpM    *meteredTransport
	sinkRel  *gateway.Reliable
	logs     *logCounter
}

// checkpointInterval is demaqd's default. No node of a run lives that long,
// so checkpoints are triggered by the dirty-page count alone, which depends
// on the work done and not on the clock.
const checkpointInterval = 30 * time.Second

func openNode(w *workload, dir string, tr *tracer, sk *sink, admitted *atomic.Int64) (*node, error) {
	n := &node{dir: dir, dev: newDevice(tr), logs: &logCounter{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meter := func(base gateway.Transport) *meteredTransport {
		return &meteredTransport{base: base, tr: tr, admitted: admitted,
			inMarker: []byte(w.inMarker), outMarker: []byte(w.outMarker)}
	}
	n.net = gateway.NewNetwork(1) // no loss, duplication or latency: the seed is never drawn
	n.sim = meter(n.net)
	reg := gateway.NewRegistry(n.sim)
	if w.usesHTTP {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return nil, err
		}
		n.httpAddr = "http://" + addr + "/queues/" + w.inQueue
		n.http = gateway.NewHTTPTransport()
		n.httpM = meter(n.http)
		reg.Add(n.httpM)
	}
	if w.reliableSink {
		rel, err := gateway.NewReliable(n.net, sinkAddr, 200*time.Millisecond, 20)
		if err != nil {
			return nil, err
		}
		if err := rel.Subscribe(sk.handle); err != nil {
			return nil, err
		}
		n.sinkRel = rel
	} else if _, err := n.net.Subscribe(sinkAddr, sk.handle); err != nil {
		return nil, err
	}

	src, files := w.app(n.httpAddr)
	app, err := qdl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s application: %w", w.name, err)
	}
	n.app = app
	storeOpts := store.DefaultOptions() // durable commits
	storeOpts.VFS = n.dev
	n.cfg = engine.Config{
		Dir:                dir,
		Workers:            2,
		Store:              msgstore.Options{Store: storeOpts},
		Rules:              rule.DefaultOptions(),
		Resources:          files,
		Transports:         reg,
		CheckpointInterval: checkpointInterval,
		Logger:             slog.New(n.logs),
	}
	return n, n.start()
}

func (n *node) start() error {
	e, err := engine.New(n.cfg, n.app)
	if err != nil {
		return err
	}
	e.Start()
	n.eng.Store(e)
	return nil
}

func (n *node) engine() *engine.Engine { return n.eng.Load() }

// incoming returns the metered transport the inputs arrive through. The
// workloads that enqueue in process have none: the sim transport it then
// returns never admits anything.
func (n *node) incoming() *meteredTransport {
	if n.httpM != nil {
		return n.httpM
	}
	return n.sim
}

const drainTimeout = 20 * time.Second

func (n *node) shutdown() error {
	drained, err := n.engine().Shutdown(drainTimeout)
	if err == nil && !drained {
		err = fmt.Errorf("node did not drain within %s", drainTimeout)
	}
	return err
}

// restart is one clean Shutdown followed by engine.New on the same
// directory, and returns the time the two took. Between them the closed
// engine is collected, untimed, so that every open starts from the same
// heap and whether a collection falls into it does not decide its time.
func (n *node) restart() (time.Duration, error) {
	t0 := time.Now()
	if err := n.shutdown(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	n.eng.Store(nil)
	runtime.GC()
	t0 = time.Now()
	e, err := engine.New(n.cfg, n.app)
	d += time.Since(t0)
	if err != nil {
		return 0, err
	}
	e.Start()
	n.eng.Store(e)
	return d, nil
}

// close shuts the node down and stops everything around it.
func (n *node) close() error {
	err := n.shutdown()
	if n.sinkRel != nil {
		n.sinkRel.Close()
	}
	n.net.Close()
	if n.http != nil {
		n.http.Close()
	}
	return err
}

func (n *node) addMasterData(collection, xml string) error {
	doc, err := xmldom.ParseString(xml)
	if err != nil {
		return err
	}
	return n.engine().MessageStore().AddToCollection(collection, doc)
}

// logCounter is the node's log sink: nothing is printed, but every warning
// or error the engine logs during a run is a failed check, and the first
// one is kept for the report.
type logCounter struct {
	problems atomic.Int64
	mu       sync.Mutex
	first    string
}

func (l *logCounter) Enabled(_ context.Context, lv slog.Level) bool { return lv >= slog.LevelWarn }

func (l *logCounter) Handle(_ context.Context, r slog.Record) error {
	l.problems.Add(1)
	l.mu.Lock()
	if l.first == "" {
		l.first = r.Message
		r.Attrs(func(a slog.Attr) bool {
			l.first += " " + a.String()
			return true
		})
	}
	l.mu.Unlock()
	return nil
}

func (l *logCounter) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *logCounter) WithGroup(string) slog.Handler      { return l }
