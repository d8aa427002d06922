package engine

import (
	"strings"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/msgstore"
	"demaq/internal/xdm"
)

// echoApp has an echo queue whose misdirected messages are reported to errs,
// and a target queue whose property expression fails on a non-numeric <n>.
const echoApp = `
create queue echoes kind echo mode persistent errorqueue errs;
create queue target kind basic mode persistent;
create queue errs kind basic mode persistent;
create property n as xs:integer queue target value //n;
`

// echoProcessed reports whether every message of the echo queue is
// processed.
func echoProcessed(e *Engine) bool {
	msgs, _ := e.MessageStore().Messages("echoes")
	for _, m := range msgs {
		if !m.Processed {
			return false
		}
	}
	return len(msgs) > 0
}

// checkEchoFailed asserts that the one echo message was consumed with
// exactly one error message, which names the failure and embeds the echo,
// and that nothing reached the target queue.
func checkEchoFailed(t testing.TB, ms *msgstore.Store, cause string) {
	t.Helper()
	echoes, _ := ms.Messages("echoes")
	if len(echoes) != 1 || !echoes[0].Processed {
		t.Fatalf("echo queue %+v, want one processed message", echoes)
	}
	errs, _ := ms.QueueDocs("errs")
	if len(errs) != 1 {
		t.Fatalf("%d error messages, want 1", len(errs))
	}
	root := errs[0].Root()
	if d := childElement(root, "description").StringValue(); !strings.Contains(d, cause) {
		t.Fatalf("error description %q does not name %q", d, cause)
	}
	if in := childElement(root, "initialMessage"); in == nil || childElement(in, "wake") == nil {
		t.Fatalf("error message does not embed the echo: %s", errs[0].StringValue())
	}
	if target, _ := ms.Messages("target"); len(target) != 0 {
		t.Fatalf("misdirected echo reached the target queue: %d messages", len(target))
	}
}

// misdirectedEchoes are the echoes fire cannot deliver, each with what its
// error message names.
var misdirectedEchoes = []struct {
	name, payload, target, cause string
}{
	{"no-target", `<wake/>`, "", "no target property"},
	{"unknown-target", `<wake/>`, "nowhere", `"nowhere" does not exist`},
	{"property-fails", `<wake><n>many</n></wake>`, "target", "many"},
}

func enqueueEcho(e *Engine, payload, target string) error {
	props := map[string]xdm.Value{}
	if target != "" {
		props["target"] = xdm.NewString(target)
	}
	_, err := e.EnqueueXML("echoes", payload, props)
	return err
}

// TestMisdirectedEchoConsumedWithError: an echo fire cannot deliver is
// consumed together with its error message, which embeds it (Sec. 3.6).
func TestMisdirectedEchoConsumedWithError(t *testing.T) {
	for _, c := range misdirectedEchoes {
		t.Run(c.name, func(t *testing.T) {
			e := newEngine(t, echoApp, nil)
			if err := enqueueEcho(e, c.payload, c.target); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool { return echoProcessed(e) })
			drain(t, e)
			checkEchoFailed(t, e.MessageStore(), c.cause)
		})
	}
}

// TestMisdirectedEchoSurvivesCrash crashes the node at every disk op of
// firing each misdirected echo, once cleanly and once with the write at that
// op torn. However the crash falls, the recovered store holds the echo
// either unprocessed and without an error message, or processed with exactly
// one; after the reboot the echo fires again and ends with one.
func TestMisdirectedEchoSurvivesCrash(t *testing.T) {
	for _, echo := range misdirectedEchoes {
		t.Run(echo.name, func(t *testing.T) {
			faultinject.Sweep(t, faultinject.Scenario[*crashNode]{
				Short: 8, Fault: faultinject.CrashAndTear,
				Setup: func(t testing.TB, fs *faultinject.FaultFS, fn *faultinject.FaultNet) *crashNode {
					c := newCrashNode(t, fs, echoApp, nil, fn).boot()
					if err := enqueueEcho(c.eng, echo.payload, echo.target); err != nil {
						t.Fatal(err)
					}
					c.onReboot = func() {
						ms := c.eng.MessageStore()
						echoes, _ := ms.Messages("echoes")
						errs, _ := ms.Messages("errs")
						if len(echoes) != 1 {
							t.Fatalf("acknowledged echo lost: the echo queue holds %d messages", len(echoes))
						}
						if want := map[bool]int{false: 0, true: 1}[echoes[0].Processed]; len(errs) != want {
							t.Fatalf("recovered: echo processed=%v with %d error messages, want %d",
								echoes[0].Processed, len(errs), want)
						}
					}
					c.settled = func() bool { return echoProcessed(c.eng) }
					return c
				},
				Run: func(_ testing.TB, c *crashNode) error {
					c.eng.Start()
					c.settle()
					return nil
				},
				Check: func(t testing.TB, c *crashNode) {
					ms := c.eng.MessageStore()
					if err := ms.VerifyIntegrity(); err != nil {
						t.Fatalf("integrity: %v", err)
					}
					checkEchoFailed(t, ms, echo.cause)
				},
			})
		})
	}
}
