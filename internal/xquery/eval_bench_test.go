package xquery

import (
	"fmt"
	"strings"
	"testing"

	"demaq/internal/xmldom"
)

// BenchmarkEvalBackends measures what lowering buys: rule-shaped bodies
// evaluated over a ~4 KB order, once as the compiled program (the product
// path) and once by the reference AST interpreter.
//
//	go test ./internal/xquery -run '^$' -bench EvalBackends
func BenchmarkEvalBackends(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`<order><id>o-17</id><customer vip="yes"><customerID>23</customerID><name>ACME</name></customer><items>`)
	for i := 0; i < 72; i++ {
		fmt.Fprintf(&sb, `<item sku="S%02d"><qty>%d</qty><price>%d.5</price></item>`, i, i%7, 3*i)
	}
	sb.WriteString(`</items></order>`)
	doc := xmldom.MustParse(sb.String())

	bodies := []struct{ name, src string }{
		{"condition", `if (//order) then do enqueue <ack>{//order/id/text()}</ack> into out`},
		{"flwor", `for $i in //item where $i/qty > 2 return <pick sku="{$i/@sku}">{$i/qty/text()}</pick>`},
		{"predicate", `if (count(//item[price > 50]) > 3) then do enqueue <big>{//customerID}</big> into audit`},
		{"aggregate", `<total n="{count(//item)}">{sum(//item/price)}</total>`},
	}
	rt := &fakeRuntime{message: doc}
	opts := EvalOptions{ContextDoc: doc}
	for _, body := range bodies {
		c := MustCompile(body.src, CompileOptions{})
		b.Run(body.name+"/program", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Eval(c, rt, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/interpreter", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := evalInterpreted(c, rt, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathAfterLargeScan measures a small path evaluated after a path
// over a large document has grown the pooled node buffers. Every pooled
// buffer is cleared when it is returned, so buffers kept at the size of the
// large path's result would make every later path pay for clearing them;
// oversized buffers are not pooled.
//
//	go test ./internal/xquery -run '^$' -bench PathAfterLargeScan
func BenchmarkPathAfterLargeScan(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`<queue>`)
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, `<offerRequest><requestID>r%d</requestID></offerRequest>`, i)
	}
	sb.WriteString(`</queue>`)
	large := xmldom.MustParse(sb.String())
	small := xmldom.MustParse(`<order><id>o-17</id><customerID>23</customerID></order>`)
	rt := &fakeRuntime{message: small}
	if _, _, err := Eval(MustCompile(`count(//requestID)`, CompileOptions{}), rt, EvalOptions{ContextDoc: large}); err != nil {
		b.Fatal(err)
	}
	c := MustCompile(`/order/customerID`, CompileOptions{})
	opts := EvalOptions{ContextDoc: small}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Eval(c, rt, opts); err != nil {
			b.Fatal(err)
		}
	}
}
