package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/xdm"
)

func TestReloadAddsRuleAtRuntime(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
	`, nil)
	// No rules yet: messages just sit processed-but-ignored.
	e.EnqueueXML("in", `<m>first</m>`, nil)
	drain(t, e)
	if got := queueBodies(t, e, "out"); len(got) != 0 {
		t.Fatal("no rules should produce nothing")
	}
	// Evolve: add a rule and a new queue.
	app := qdl.MustParse(`
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create queue audit kind basic mode persistent;
		create rule fwd for in if (//m) then
		  (do enqueue <fwd/> into out, do enqueue <log/> into audit);
	`)
	if err := e.Reload(app); err != nil {
		t.Fatal(err)
	}
	e.EnqueueXML("in", `<m>second</m>`, nil)
	drain(t, e)
	if got := queueBodies(t, e, "out"); len(got) != 1 {
		t.Fatalf("new rule not active: %v", got)
	}
	if got := queueBodies(t, e, "audit"); len(got) != 1 {
		t.Fatalf("new queue not usable: %v", got)
	}
}

func TestReloadEvolutionGuards(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
	`, nil)
	cases := []string{
		// remove a queue
		`create queue other kind basic mode persistent;`,
		// change mode
		`create queue in kind basic mode transient;`,
		// change kind
		`create queue in kind echo mode persistent;`,
		// add a gateway at runtime
		`create queue in kind basic mode persistent;
		 create queue gw kind outgoingGateway mode persistent interface x.wsdl;`,
	}
	for _, src := range cases {
		app, err := qdl.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := e.Reload(app); err == nil {
			t.Errorf("reload should have been rejected for %q", src)
		}
	}
}

// TestReloadNeedsNoRebuild: slice membership is read off the message store,
// so a reload has nothing to rebuild — the members of an existing slicing are
// still there, a slicing the reload adds sees the messages enqueued before it,
// and the one thing replayed is the persisted resets.
func TestReloadNeedsNoRebuild(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create property k as xs:string fixed queue in value //k;
		create slicing byK on k;
		create rule done for byK if (//last) then do reset;
	`, nil)
	e.EnqueueXML("in", `<m><k>a</k></m>`, nil)
	e.EnqueueXML("in", `<m><k>a</k></m>`, nil)
	e.EnqueueXML("in", `<m><k>b</k><last/></m>`, nil)
	drain(t, e)
	if n := len(e.Slices().SliceMembers("byK", "b")); n != 0 {
		t.Fatalf("slice b after its reset: %d members", n)
	}
	// Reload with a new rule over the existing slicing and a second slicing
	// over the same property.
	app := qdl.MustParse(`
		create queue in kind basic mode persistent;
		create queue joined kind basic mode persistent;
		create property k as xs:string fixed queue in value //k;
		create slicing byK on k;
		create slicing alsoByK on k;
		create rule pair for byK
		  if (count(qs:slice()) >= 3) then
		    do enqueue <trio>{qs:slicekey()}</trio> into joined;
	`)
	if err := e.Reload(app); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Slices().SliceMembers("byK", "a")); n != 2 {
		t.Fatalf("memberships after reload: %d", n)
	}
	if n := len(e.Slices().SliceMembers("byK", "b")); n != 0 {
		t.Fatalf("reset of slice b lost in the reload: %d members", n)
	}
	// The new slicing is in its first lifetime everywhere: byK's reset of b
	// is not its reset.
	for key, want := range map[string]int{"a": 2, "b": 1} {
		if n := len(e.Slices().SliceMembers("alsoByK", key)); n != want {
			t.Fatalf("slicing added by the reload: %d members with key %s, want %d", n, key, want)
		}
	}
	e.EnqueueXML("in", `<m><k>a</k></m>`, nil)
	drain(t, e)
	if got := queueBodies(t, e, "joined"); len(got) != 1 || got[0] != "trio" {
		t.Fatalf("slicing rule after reload: %v", got)
	}
}

// TestReloadDroppingSlicingForgetsItsResets: once a reload drops a
// slicing, its reset records dismiss nothing the program can read, so the
// retention passes delete them instead of replaying them at every open —
// and would otherwise apply them to a slicing of that name declared again.
func TestReloadDroppingSlicingForgetsItsResets(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create property k as xs:string queue in value //k;
		create slicing byK on k;
		create rule r for in if (//m) then do reset byK key "a";
	`, nil)
	for range 3 {
		if _, err := e.EnqueueXML("in", `<m><k>a</k></m>`, nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e)
	if events, err := e.MessageStore().ResetEvents(); err != nil || len(events) == 0 {
		t.Fatalf("reset records before the reload: %v %v", events, err)
	}
	if err := e.Reload(qdl.MustParse(`create queue in kind basic mode persistent;`)); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := e.CollectGarbage(); err != nil {
			t.Fatal(err)
		}
	}
	if msgs, _ := e.MessageStore().Messages("in"); len(msgs) != 0 {
		t.Fatalf("%d messages survived the passes", len(msgs))
	}
	if events, err := e.MessageStore().ResetEvents(); err != nil || len(events) != 0 {
		t.Fatalf("reset records of the dropped slicing after two passes: %v %v", events, err)
	}
}

func TestEchoTimersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	app := `
		create queue echoQueue kind echo mode persistent;
		create queue target kind basic mode persistent;
	`
	e, err := New(Config{Dir: dir, Workers: 1}, qdl.MustParse(app))
	if err != nil {
		t.Fatal(err)
	}
	// Register a timer but crash before it fires (engine never started,
	// so the timer service is not running).
	_, err = e.EnqueueXML("echoQueue", `<wake/>`, map[string]xdm.Value{
		"timeout": xdm.NewInteger(30),
		"target":  xdm.NewString("target"),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.MessageStore().PageStore().CrashForTest()

	e2, err := New(Config{Dir: dir, Workers: 1}, qdl.MustParse(app))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	e2.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := queueBodies(t, e2, "target"); len(got) == 1 && got[0] == "wake" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("echo timer did not survive the restart")
}

// reloadAppA and reloadAppB are two versions of one application: B keeps
// A's queue, property and slicing, and adds a queue, a collection, a second
// slicing, a projected rule and an index-probed qs:queue() read.
const reloadAppA = `
create queue in kind basic mode persistent;
create property k as xs:string fixed queue in value /m/k;
create slicing byK on k;
create rule done for byK if (/m/last) then do reset;
`

const reloadAppB = `
create queue in kind basic mode persistent;
create queue log kind basic mode persistent;
create queue orders kind basic mode persistent;
create collection master;
create property k as xs:string fixed queue in value /m/k;
create property r as xs:string fixed queue log value //r;
create property ch as xs:string queue in value /m/ch;
create slicing byK on k;
create slicing alsoByK on k;
create rule pair for byK
  if (count(qs:slice()) >= 2) then do enqueue <pair>{qs:slicekey()}</pair> into log;
create rule route for in
  if (qs:property("ch") = "x") then do enqueue <r>{string(/m/k)}</r> into log;
create rule ship for orders
  if (/order/item) then do enqueue <shipped>{string(/order/id)}</shipped> into log;
create rule lookup for in
  if (qs:queue("log")[//r = "a"]) then do enqueue <seen/> into log;
`

// deployedState renders what deploying an application derives: every
// queue and slice plan with each rule's access path and qs:queue() reads,
// the projection fingerprint of every queue, the probe floor and the
// members of every slice.
func deployedState(e *Engine, keys ...string) string {
	var b strings.Builder
	plans := func(kind string, m map[string]*rule.Plan) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s plan %s: probes %v\n", kind, name, m[name].IndexProbes())
			for _, r := range m[name].Rules {
				fmt.Fprintf(&b, "  rule %s: access %d, trigger %q, preds %v, queue reads %v\n",
					r.Name, r.Access, r.Trigger, r.PropPreds, r.QueueReads)
			}
		}
	}
	plans("queue", e.prog.QueuePlans)
	plans("slice", e.prog.SlicePlans)
	for _, q := range e.prog.App.Queues {
		fmt.Fprintf(&b, "queue %s: projection %x\n", q.Name, e.projFP(q.Name))
	}
	fmt.Fprintf(&b, "probe floor %d\n", e.probeFloor)
	for _, s := range e.prog.App.Slicings {
		for _, key := range keys {
			fmt.Fprintf(&b, "slice %s/%s: members %v\n", s.Name, key, e.slices.SliceMembers(s.Name, key))
		}
	}
	return b.String()
}

// TestReloadMatchesNew: Reload deploys an application exactly as New does —
// an engine reloaded from A to B holds the state a fresh engine on B over
// the same store holds.
func TestReloadMatchesNew(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 2}
	e, err := New(cfg, qdl.MustParse(reloadAppA))
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for _, m := range []string{`<m><k>a</k></m>`, `<m><k>a</k></m>`, `<m><k>b</k></m>`, `<m><k>b</k><last/></m>`, `<m><k>c</k></m>`} {
		if _, err := e.EnqueueXML("in", m, nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e)
	if err := e.Reload(qdl.MustParse(reloadAppB)); err != nil {
		t.Fatal(err)
	}
	reloaded, reloadedDecls := deployedState(e, "a", "b", "c"), e.decls
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(cfg, qdl.MustParse(reloadAppB))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Stop()
	if got := deployedState(fresh, "a", "b", "c"); got != reloaded {
		t.Errorf("reloaded engine:\n%s\nfresh engine:\n%s", reloaded, got)
	}
	if !reflect.DeepEqual(fresh.decls, reloadedDecls) {
		t.Errorf("queue declarations differ: reloaded %v, fresh %v", reloadedDecls, fresh.decls)
	}
	// The comparison covers each kind of derived state.
	for _, want := range []string{"access 2", "queue reads [{log false r}]",
		"slice byK/a: members [1 2]", "slice byK/b: members []", "slice alsoByK/b: members [3 4]"} {
		if !strings.Contains(reloaded, want) {
			t.Errorf("deployed state lacks %q:\n%s", want, reloaded)
		}
	}
	if fresh.projFP("orders") == 0 {
		t.Errorf("queue orders has no projection:\n%s", reloaded)
	}
}
