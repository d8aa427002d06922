// Command demaqctl is the client-side companion of demaqd.
//
//	demaqctl validate application.dq
//	demaqctl send http://host:port/queues/in message.xml [key=value ...]
//	demaqctl send http://host:port/queues/in - < message.xml
//	demaqctl status http://host:7070
//
// "send" POSTs an XML message to an HTTP incoming-gateway endpoint of a
// running server; key=value pairs become explicit message properties
// (X-Demaq-Property headers). "status" reads the JSON endpoint served by
// demaqd -status and prints the engine counters, including the
// set-oriented execution stats (batches claimed, average batch size,
// deadlocks, lock waits, deadlock requeues), the outgoing gateway senders'
// (transfers sent, consume commits, send errors), the slice reads (reads
// and the documents they fetched; a transaction reads each slice once) and
// the page write-back's (pages written, log flushes waited for: pages
// written over flushes is pages per flush).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"demaq"
	"demaq/internal/gateway"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "validate":
		if len(os.Args) != 3 {
			usage()
		}
		src, err := os.ReadFile(os.Args[2])
		if err != nil {
			fatal(err)
		}
		if err := demaq.Validate(string(src)); err != nil {
			fatal(fmt.Errorf("%s: %w", os.Args[2], err))
		}
		fmt.Printf("%s: OK\n", os.Args[2])
	case "send":
		if len(os.Args) < 4 {
			usage()
		}
		url, file := os.Args[2], os.Args[3]
		var body []byte
		var err error
		if file == "-" {
			body, err = io.ReadAll(os.Stdin)
		} else {
			body, err = os.ReadFile(file)
		}
		if err != nil {
			fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
		if err != nil {
			fatal(err)
		}
		req.Header.Set("Content-Type", "application/xml")
		for _, kv := range os.Args[4:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				fatal(fmt.Errorf("property argument %q is not key=value", kv))
			}
			req.Header.Add(gateway.PropertyHeader, gateway.EncodeProperty(k, v))
		}
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Do(req)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			fatal(fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(out))))
		}
		fmt.Printf("accepted (%s)\n", resp.Status)
	case "status":
		if len(os.Args) != 3 {
			usage()
		}
		url := strings.TrimSuffix(os.Args[2], "/")
		if !strings.HasSuffix(url, "/status") {
			url += "/status"
		}
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(url)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			fatal(fmt.Errorf("server returned %s", resp.Status))
		}
		var st demaq.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			fatal(err)
		}
		fmt.Printf("processed          %d\n", st.Processed)
		fmt.Printf("rules evaluated    %d\n", st.RulesEvaluated)
		fmt.Printf("rules fired        %d\n", st.RulesFired)
		fmt.Printf("enqueued           %d\n", st.Enqueued)
		fmt.Printf("resets             %d\n", st.Resets)
		fmt.Printf("errors             %d\n", st.Errors)
		fmt.Printf("deadlocks          %d\n", st.Deadlocks)
		fmt.Printf("lock waits         %d\n", st.LockWaits)
		fmt.Printf("deadlock requeues  %d\n", st.DeadlockRequeues)
		fmt.Printf("collected          %d\n", st.Collected)
		fmt.Printf("backlog            %d\n", st.Backlog)
		fmt.Printf("batches claimed    %d\n", st.BatchesClaimed)
		fmt.Printf("avg batch size     %.2f\n", st.AvgBatchSize)
		fmt.Printf("batches committed  %d\n", st.BatchesCommitted)
		fmt.Printf("avg committed      %.2f\n", st.AvgCommittedBatch)
		fmt.Printf("gateway sent       %d\n", st.GatewaySent)
		fmt.Printf("gateway commits    %d\n", st.GatewayConsumeCommits)
		fmt.Printf("gateway errors     %d\n", st.GatewaySendErrors)
		fmt.Printf("pipelined commits  %d\n", st.PipelinedCommits)
		fmt.Printf("durability waits   %d\n", st.DurabilityWaits)
		fmt.Printf("follower flushes   %d\n", st.FollowerFlushes)
		fmt.Printf("undurable batches  %d\n", st.UndurableBatches)
		fmt.Printf("slice reads        %d\n", st.SliceReads)
		fmt.Printf("slice docs read    %d\n", st.SliceDocsRead)
		fmt.Printf("pages written      %d\n", st.Store.PagesWritten)
		fmt.Printf("write-back flushes %d\n", st.Store.WriteBackFlushes)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  demaqctl validate <application.dq>
  demaqctl send <endpoint-url> <message.xml|-> [prop=value ...]
  demaqctl status <status-url>`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "demaqctl:", err)
	os.Exit(1)
}
