package xquery

import (
	"reflect"
	"testing"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// FuzzEvalBackends checks that lowering is total and faithful beyond the
// generated corpus: every input that parses and that Compile accepts is
// evaluated on its program and on the reference interpreter over the
// hand-picked document, and the two must agree on the result, the pending
// update list and the error code.
func FuzzEvalBackends(f *testing.F) {
	// The seeds of internal/xpath's FuzzXPathParse, then the hand-picked
	// differential list.
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
	for _, s := range append(seeds, handPickedExprs...) {
		f.Add(s)
	}
	doc := xmldom.MustParse(handPickedDoc)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return
		}
		e, err := xpath.ParseExprString(src)
		if err != nil || !cheapToEvaluate(e) {
			return
		}
		c, err := Compile(e, CompileOptions{AllowSlice: true})
		if err != nil {
			return
		}
		if mismatch := compareBackends(c, diffRuntime(doc), EvalOptions{ContextDoc: doc}); mismatch != "" {
			t.Fatalf("%q: %s", src, mismatch)
		}
	})
}

// cheapToEvaluate bounds the work of one fuzz input, which is evaluated
// twice: at most four iterating constructs (predicates, for/let clauses,
// quantifier bindings, ranges) and only ranges between integer literals at
// most 20 apart. Over the 16-node hand-picked document that keeps every
// input well under a second.
func cheapToEvaluate(e xpath.Expr) bool {
	loops, ok := 0, true
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface, reflect.Pointer:
			if v.IsNil() {
				return
			}
			switch x := v.Interface().(type) {
			case *xpath.BinaryExpr:
				if x.Op == xpath.BinRange {
					loops++
					lo, lok := x.Left.(*xpath.Literal)
					hi, hok := x.Right.(*xpath.Literal)
					ok = ok && lok && hok && lo.Value.T == xdm.TypeInteger &&
						hi.Value.T == xdm.TypeInteger && hi.Value.I-lo.Value.I <= 20
				}
			case *xpath.FLWORExpr:
				loops += len(x.Clauses)
			case *xpath.QuantifiedExpr:
				loops += len(x.Bindings)
			}
			walk(v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			if preds := v.FieldByName("Preds"); preds.IsValid() && preds.Kind() == reflect.Slice {
				loops += preds.Len()
			}
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		}
	}
	walk(reflect.ValueOf(e))
	return ok && loops <= 4
}
