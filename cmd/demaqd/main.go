// Command demaqd runs a Demaq server: it loads a declarative application
// (QDL + QML statements) and executes it against a persistent data
// directory until interrupted.
//
//	demaqd -app application.dq -data ./data [-workers 4] [-http] [-gc 30s]
//	demaqd -app application.dq -check          # validate only
//
// Gateway queues resolve their endpoints from WSDL files relative to the
// application file's directory. With -http the HTTP transport is attached,
// so incoming gateway queues with http:// addresses accept messages POSTed
// by demaqctl or any HTTP client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"demaq"
)

func main() {
	var (
		appFile    = flag.String("app", "", "application file (QDL+QML statements)")
		dataDir    = flag.String("data", "./demaq-data", "data directory")
		workers    = flag.Int("workers", 4, "message-processing workers")
		batchSize  = flag.Int("batch", 0, "messages claimed and committed per set-oriented batch (0 = tuned default, 1 = one message per transaction)")
		check      = flag.Bool("check", false, "validate the application and exit")
		useHTTP    = flag.Bool("http", false, "attach the HTTP gateway transport")
		useSim     = flag.Bool("sim", false, "attach the simulated in-process network transport")
		gcEvery    = flag.Duration("gc", 30*time.Second, "retention GC interval (0 disables)")
		noSync     = flag.Bool("nosync", false, "disable fsync on commit")
		statsSec   = flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
		statusAddr = flag.String("status", "", "serve engine status as JSON on this address (e.g. :7070; demaqctl status reads it)")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget for in-flight work")
		maxBacklog = flag.Int("max-backlog", 0, "shed ingest with 429 when the backlog exceeds this (0 = unbounded)")
		walSoft    = flag.Int64("wal-soft", 0, "WAL soft budget in bytes: throttle commits and checkpoint past this much live log (0, or not below -wal-hard: half of -wal-hard)")
		walHard    = flag.Int64("wal-hard", 0, "WAL hard budget in bytes: shed ingest with 429 when the live log reaches this (0 = unbudgeted)")
		ckptEvery  = flag.Duration("checkpoint", 30*time.Second, "fuzzy checkpoint interval, bounding crash-recovery replay (0 disables the time trigger)")
	)
	flag.Parse()
	if *appFile == "" {
		fmt.Fprintln(os.Stderr, "usage: demaqd -app application.dq [-data dir]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	source, err := os.ReadFile(*appFile)
	if err != nil {
		log.Fatalf("demaqd: %v", err)
	}
	if *check {
		if err := demaq.Validate(string(source)); err != nil {
			log.Fatalf("demaqd: %s: %v", *appFile, err)
		}
		fmt.Printf("%s: OK\n", *appFile)
		return
	}

	opts := &demaq.Options{
		Workers:            *workers,
		BatchSize:          *batchSize,
		GCInterval:         *gcEvery,
		NoSync:             *noSync,
		SimNetwork:         *useSim,
		EnableHTTP:         *useHTTP,
		MaxIngestBacklog:   *maxBacklog,
		WALSoftBudget:      *walSoft,
		WALHardBudget:      *walHard,
		CheckpointInterval: *ckptEvery,
		Resources:          os.DirFS(filepath.Dir(*appFile)),
		Logger:             slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	srv, err := demaq.Open(*dataDir, string(source), opts)
	if err != nil {
		log.Fatalf("demaqd: %v", err)
	}
	srv.Start()
	log.Printf("demaqd: serving %s from %s (queues: %v)", *appFile, *dataDir, srv.Queues())
	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(srv.Stats())
		})
		go func() {
			if err := http.ListenAndServe(*statusAddr, mux); err != nil {
				log.Printf("demaqd: status server: %v", err)
			}
		}()
		log.Printf("demaqd: status on http://%s/status", *statusAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *statsSec > 0 {
		ticker := time.NewTicker(*statsSec)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				log.Printf("demaqd: %s", demaq.FormatStats(srv.Stats()))
			}
		}()
	}
	<-stop
	log.Printf("demaqd: shutting down (drain %s): %s", *drain, demaq.FormatStats(srv.Stats()))
	// A second signal during the drain forces immediate exit; leftover work
	// stays unprocessed in its persistent queues and resumes on restart.
	go func() {
		<-stop
		log.Fatalf("demaqd: second signal, exiting without drain")
	}()
	drained, err := srv.Shutdown(*drain)
	if err != nil {
		log.Fatalf("demaqd: shutdown: %v", err)
	}
	if !drained {
		log.Printf("demaqd: drain budget elapsed; leftover work resumes on restart")
	}
}
