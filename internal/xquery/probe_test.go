package xquery

import (
	"fmt"
	"testing"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// probeRuntime answers probes the way the engine's property index does for
// a fixed property "key" defined as //key: a document is a candidate when
// its first key has the probed value or it has more than one key.
type probeRuntime struct {
	fakeRuntime
	refuse bool
	probed []string // the values probed, in order
}

func (r *probeRuntime) QueueProbe(queue, prop, value string) ([]*xmldom.Node, bool, error) {
	if r.refuse {
		return nil, false, nil
	}
	r.probed = append(r.probed, prop+"="+value)
	docs, err := r.Queue(queue)
	if err != nil {
		return nil, false, err
	}
	keys := MustCompile(`//key`, CompileOptions{})
	var out []*xmldom.Node
	for _, d := range docs {
		seq, _, err := Eval(keys, r, EvalOptions{ContextDoc: d})
		if err != nil {
			return nil, false, err
		}
		if len(seq) > 1 || (len(seq) == 1 && xdm.ItemString(seq[0]) == value) {
			out = append(out, d)
		}
	}
	return out, true, nil
}

// TestQueueProbeExact compiles filtered qs:queue() reads with a probe and
// checks each against the reference interpreter, which always reads the
// whole queue: the probe may only narrow what the filter throws away. It
// also pins when the program probes and when it falls back to the plain
// read.
func TestQueueProbeExact(t *testing.T) {
	docs := []*xmldom.Node{
		xmldom.MustParse(`<doc><key>a</key><v>1</v></doc>`),
		xmldom.MustParse(`<doc><key>b</key><key>a</key><v>2</v></doc>`), // only the second key matches "a"
		xmldom.MustParse(`<doc><key>b</key><v>3</v></doc>`),
		xmldom.MustParse(`<doc><key>1.0</key><v>4</v></doc>`),
		xmldom.MustParse(`<doc><v>5</v></doc>`),
	}
	msg := xmldom.MustParse(`<msg><m>a</m><n>1</n></msg>`)
	cases := []struct {
		src, key string
		probed   string // "": the read must fall back
		n        int    // result length
	}{
		{`let $k := "a" return qs:queue("q")[.//key = $k]/doc/v`, `$k`, "key=a", 2},
		{`qs:queue("q")/doc[key = "b"]`, `"b"`, "key=b", 2},
		{`qs:queue("q")["a" = //key]`, `"a"`, "key=a", 2},
		{`qs:queue("q")[.//key = qs:message()//m]`, `qs:message()//m`, "key=a", 2},
		// A number compares as a number ("1.0" = 1), which no string probe
		// finds: fall back.
		{`qs:queue("q")[.//key = 1]`, `1`, "", 1},
		{`qs:queue("q")[.//key = number(qs:message()//n)]`, `number(qs:message()//n)`, "", 1},
		// Two key values: fall back.
		{`qs:queue("q")[.//key = ("a", "b")]`, `("a", "b")`, "", 3},
		// The key fails: the plain read raises the error in the filter.
		{`qs:queue("q")[.//key = string((1, 2))]`, `string((1, 2))`, "", 0},
	}
	for _, tc := range cases {
		e, err := xpath.ParseExprString(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		var call *xpath.FuncCall
		xpath.Inspect(e, func(e xpath.Expr) bool {
			if fc, ok := e.(*xpath.FuncCall); ok && fc.Local == "queue" {
				call = fc
			}
			return call == nil
		})
		key, err := xpath.ParseExprString(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(e, CompileOptions{QueueProbes: []QueueProbe{{Call: call, Prop: "key", Key: key}}})
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		for _, refuse := range []bool{false, true} {
			rt := &probeRuntime{fakeRuntime: fakeRuntime{message: msg, queues: map[string][]*xmldom.Node{"q": docs}}, refuse: refuse}
			opts := EvalOptions{ContextDoc: msg}
			if diff := compareBackends(c, rt, opts); diff != "" {
				t.Errorf("%s (refuse=%v): %s", tc.src, refuse, diff)
			}
			rt.probed = nil
			seq, _, err := Eval(c, rt, opts)
			if tc.n > 0 && (err != nil || len(seq) != tc.n) {
				t.Errorf("%s (refuse=%v): %d items, %v; want %d", tc.src, refuse, len(seq), err, tc.n)
			}
			if tc.n == 0 && err == nil {
				t.Errorf("%s: no error", tc.src)
			}
			want := []string{tc.probed}
			if tc.probed == "" || refuse {
				want = nil
			}
			if len(rt.probed) != len(want) || (len(want) == 1 && rt.probed[0] != want[0]) {
				t.Errorf("%s (refuse=%v): probed %v, want %v", tc.src, refuse, rt.probed, want)
			}
		}
		// A runtime that cannot probe reads the whole queue.
		if diff := compareBackends(c, &fakeRuntime{message: msg, queues: map[string][]*xmldom.Node{"q": docs}}, EvalOptions{ContextDoc: msg}); diff != "" {
			t.Errorf("%s (no prober): %s", tc.src, diff)
		}
	}
}

// TestFocusFree pins which keys FocusFree accepts, and checks the registry
// flags it reads: every function it accepts without arguments returns the
// same value under two different focuses.
func TestFocusFree(t *testing.T) {
	for src, want := range map[string]bool{
		`"a"`:                         true,
		`$k`:                          true,
		`string($k)`:                  true,
		`concat("a", $k)`:             true,
		`qs:message()//m`:             true,
		`qs:slicekey()`:               true,
		`string(qs:property("p"))`:    true,
		`if ($k) then "a" else $k`:    true,
		`string(.)`:                   false,
		`string()`:                    false,
		`position()`:                  false,
		`//m`:                         false,
		`m`:                           false,
		`qs:message()//m[1]`:          false,
		`string(qs:queue("q")//key)`:  false,
		`count(qs:slice())`:           false,
		`unknown($k)`:                 false,
		`for $x in $k return $x`:      false,
		`qs:message()//m/string()`:    false,
		`(qs:message()//m)[. = "a"]`:  false,
		`string(qs:message()//m) = 1`: true,
	} {
		e, err := xpath.ParseExprString(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := FocusFree(e); got != want {
			t.Errorf("FocusFree(%s) = %v, want %v", src, got, want)
		}
	}
	a, b := xmldom.MustParse(`<a>1</a>`), xmldom.MustParse(`<b><c>2</c></b>`)
	rt := &fakeRuntime{message: a, queues: map[string][]*xmldom.Node{}}
	for name, f := range functions {
		if f.minArgs > 0 {
			continue
		}
		e, err := xpath.ParseExprString(name + "()")
		if err != nil {
			t.Fatal(err)
		}
		if !FocusFree(e) {
			continue
		}
		c, err := Compile(e, CompileOptions{AllowSlice: true})
		if err != nil {
			t.Fatal(err)
		}
		var got [2]string
		for i, doc := range []*xmldom.Node{a, b} {
			seq, _, err := Eval(c, rt, EvalOptions{ContextDoc: doc})
			if err != nil {
				t.Fatalf("%s(): %v", name, err)
			}
			got[i] = fmt.Sprint(seq)
		}
		if got[0] != got[1] {
			t.Errorf("%s() is focus-free but returned %s and %s", name, got[0], got[1])
		}
	}
}
