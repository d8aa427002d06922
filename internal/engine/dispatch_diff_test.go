package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
)

// dispatchDiffApp exercises every path the secondary index touches:
// property-prefiltered routing rules (index probes at dispatch), a slicing
// with a qs:slice join rule (slice members as an index range), and a
// poison rule feeding the error queue.
const dispatchDiffApp = `
	create queue inbox kind basic mode persistent;
	create queue eu kind basic mode persistent;
	create queue us kind basic mode persistent;
	create queue joined kind basic mode persistent;
	create queue errs kind basic mode persistent;
	create property region as xs:string queue inbox value //region;
	create property reqID as xs:string queue inbox value //rid;
	create slicing requests on reqID;
	create rule euRoute for inbox
	  if (qs:property("region") = "eu") then do enqueue <eu>{//id/text()}</eu> into eu;
	create rule usRoute for inbox
	  if (qs:property("region") = "us") then do enqueue <us>{//id/text()}</us> into us;
	create rule poison for inbox errorqueue errs
	  if (//order/poison) then do enqueue <x>{1 idiv 0}</x> into eu;
	create rule joinReq for requests
	  if (count(qs:slice()[/order/last]) > 0) then
	    do enqueue <joined>{qs:slicekey()}<n>{count(qs:slice())}</n></joined> into joined;
`

// diffRun is one configuration of the differential workload: scan turns the
// secondary index off (msgstore.Options.NoPropertyIndex), unoptimized turns
// the rule optimizations off (rule.Options.Unoptimized). The zero value is
// the production path.
type diffRun struct{ scan, unoptimized bool }

func runDispatchDiff(t *testing.T, batchSize, n int, run diffRun) (map[string][]string, Stats) {
	t.Helper()
	app := qdl.MustParse(dispatchDiffApp)
	cfg := Config{
		Dir: t.TempDir(), Workers: 8, BatchSize: batchSize,
		Rules: rule.Options{Unoptimized: run.unoptimized},
	}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	cfg.Store.NoPropertyIndex = run.scan
	e, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// Each side must really be the path it is named after, or the
	// comparison holds vacuously.
	inbox := e.Program().QueuePlans["inbox"]
	if got, want := inbox.IndexDispatchable(), !run.unoptimized; got != want {
		t.Fatalf("%+v: inbox plan index-dispatchable = %v, want %v", run, got, want)
	}
	if got, want := e.MessageStore().PropertyIndexEnabled(), !run.scan; got != want {
		t.Fatalf("%+v: property index enabled = %v, want %v", run, got, want)
	}
	if run.unoptimized {
		for _, plans := range []map[string]*rule.Plan{e.Program().QueuePlans, e.Program().SlicePlans} {
			for _, plan := range plans {
				for _, r := range plan.Rules {
					if r.Trigger != "" || len(r.PropPreds) != 0 {
						t.Fatalf("%+v: rule %q dispatches: trigger %q, preds %+v", run, r.Name, r.Trigger, r.PropPreds)
					}
				}
			}
		}
	}
	// Preload the whole workload before starting the workers: rule outputs
	// like count(qs:slice()) depend on how much of the stream has arrived
	// when a rule fires, so racing enqueues against processing would make
	// the two runs diverge legitimately. With the backlog (and therefore
	// every slice membership) complete before the first evaluation, both
	// engines must produce byte-identical state.
	for i := 0; i < n; i++ {
		region := []string{"eu", "us", "apac"}[i%3]
		extra := ""
		if i%7 == 6 {
			extra = "<poison/>"
		}
		if i%10 == 9 {
			extra += "<last/>"
		}
		doc := fmt.Sprintf(`<order><id>%d</id><region>%s</region><rid>r%d</rid>%s</order>`,
			i, region, i%5, extra)
		if _, err := e.EnqueueXML("inbox", doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	if !e.Drain(60 * time.Second) {
		t.Fatal("drain")
	}
	state := map[string][]string{}
	for _, q := range e.MessageStore().QueueNames() {
		state[q] = queueFingerprint(t, e, q)
	}
	return state, e.Stats()
}

// diffAgainstProduction runs the workload on the production path and on the
// reference configuration ref, at batch sizes 1 and 32, and asserts
// identical final store state — every queue including the error queue —
// and identical processed/error counts.
func diffAgainstProduction(t *testing.T, ref diffRun) {
	const n = 210
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			got, gotStats := runDispatchDiff(t, batch, n, diffRun{})
			want, wantStats := runDispatchDiff(t, batch, n, ref)
			if len(got) != len(want) {
				t.Fatalf("queue sets differ: %d vs %d", len(got), len(want))
			}
			// The diff must not hold vacuously: every exercised path has
			// to have produced output.
			for _, q := range []string{"eu", "us", "joined", "errs"} {
				if len(want[q]) == 0 {
					t.Fatalf("queue %q empty — workload did not exercise its path", q)
				}
			}
			for q, wantMsgs := range want {
				gotMsgs, ok := got[q]
				if !ok {
					t.Fatalf("queue %q missing in production run", q)
				}
				if len(gotMsgs) != len(wantMsgs) {
					t.Fatalf("queue %q: %d messages in production vs %d in reference", q, len(gotMsgs), len(wantMsgs))
				}
				for i := range wantMsgs {
					if gotMsgs[i] != wantMsgs[i] {
						t.Errorf("queue %q message %d differs:\n  reference:  %s\n  production: %s", q, i, wantMsgs[i], gotMsgs[i])
					}
				}
			}
			if gotStats.Processed != wantStats.Processed {
				t.Errorf("processed: production %d, reference %d", gotStats.Processed, wantStats.Processed)
			}
			if gotStats.Errors != wantStats.Errors {
				t.Errorf("errors: production %d, reference %d", gotStats.Errors, wantStats.Errors)
			}
			if want := uint64(n / 7); gotStats.Errors != want {
				t.Errorf("poison errors: %d, want %d", gotStats.Errors, want)
			}
		})
	}
}

// TestIndexedScanDispatchDifferential compares index-backed dispatch/slice
// access with the scan reference (no property index). Runs under -race in
// CI.
func TestIndexedScanDispatchDifferential(t *testing.T) {
	diffAgainstProduction(t, diffRun{scan: true})
}

// TestRuleOptimizationDifferential compares the optimizing rule compiler
// (element triggers, property prefilters, index probes) with the
// unoptimized plan that evaluates every rule for every message; both sides
// run compiled programs. Real rule bodies meet the reference interpreter in
// xquery's TestRuleBodiesDifferential. Runs under -race in CI.
func TestRuleOptimizationDifferential(t *testing.T) {
	diffAgainstProduction(t, diffRun{unoptimized: true})
}

// TestZeroConfigIsProduction pins that a Config with no Rules set compiles
// the same program as an explicit rule.DefaultOptions(): dispatching plans
// (element triggers, property prefilters, index probes) — every engine test
// that leaves Rules zero runs the path production runs.
func TestZeroConfigIsProduction(t *testing.T) {
	app := qdl.MustParse(dispatchDiffApp)
	e, err := New(Config{Dir: t.TempDir()}, app)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	want, err := rule.Compile(app, rule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := e.Program()
	triggers, preds := 0, 0
	check := func(gotPlans, wantPlans map[string]*rule.Plan) {
		if len(gotPlans) != len(wantPlans) {
			t.Fatalf("plans: %d, want %d", len(gotPlans), len(wantPlans))
		}
		for target, wp := range wantPlans {
			gp := gotPlans[target]
			if gp == nil || len(gp.Rules) != len(wp.Rules) {
				t.Fatalf("plan %q: %+v, want %d rules", target, gp, len(wp.Rules))
			}
			if !reflect.DeepEqual(gp.IndexProbes(), wp.IndexProbes()) {
				t.Errorf("plan %q probes: %+v, want %+v", target, gp.IndexProbes(), wp.IndexProbes())
			}
			for i, wr := range wp.Rules {
				gr := gp.Rules[i]
				if gr.Name != wr.Name || gr.Trigger != wr.Trigger || gr.Access != wr.Access ||
					!reflect.DeepEqual(gr.PropPreds, wr.PropPreds) {
					t.Errorf("rule %q planned {%q %v %+v}, want {%q %v %+v}", wr.Name,
						gr.Trigger, gr.Access, gr.PropPreds, wr.Trigger, wr.Access, wr.PropPreds)
				}
				if gr.Trigger != "" {
					triggers++
				}
				preds += len(gr.PropPreds)
			}
		}
	}
	check(got.QueuePlans, want.QueuePlans)
	check(got.SlicePlans, want.SlicePlans)
	if triggers == 0 || preds == 0 {
		t.Fatalf("app exercises no dispatch: %d triggers, %d property prefilters", triggers, preds)
	}
}
