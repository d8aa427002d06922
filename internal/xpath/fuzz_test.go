package xpath

import (
	"reflect"
	"testing"
)

// FuzzXPathParse drives the expression parser with arbitrary source text.
// The parser must never panic, and parsing must be deterministic: a second
// parse of the same input yields the same accept/reject decision and the
// same error message or an identical tree.
func FuzzXPathParse(f *testing.F) {
	seeds := []string{
		`//order/id`,
		`/m/a[@id = "2"]/text()`,
		`if (//a and not(//b)) then 1 else 2`,
		`for $x at $i in //item order by $x/price descending return <p n="{$i}">{$x}</p>`,
		`some $v in (1 to 10) satisfies $v mod 2 = 0`,
		`do enqueue <checked>{//order/id}</checked> into stage1`,
		`do reset s key qs:slicekey()`,
		`qs:queue("in")[//total > 100.5]`,
		`concat("a", string-join(//k, ","), 'b')`,
		`(1, 2.5, "three", .)[position() < last()]`,
		`ancestor-or-self::*/@* | //node()`,
		`-(-5) idiv (2 + 0)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e1, err1 := ParseExprString(src)
		e2, err2 := ParseExprString(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic accept: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("non-deterministic error: %q vs %q", err1, err2)
			}
			return
		}
		if e1 == nil {
			t.Fatalf("nil expression without error for %q", src)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("non-deterministic tree for %q", src)
		}
	})
}
