package xmldom

import (
	"fmt"
	"strings"
	"testing"
)

// benchDoc is one ingest shape of the benchmark workloads: its wire bytes
// and a projection that prunes what the workload's rules never read.
type benchDoc struct {
	name string
	wire []byte
	proj *Projection
}

// filler is padding text of n bytes.
func filler(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
	return strings.Repeat(alphabet, n/len(alphabet)+1)[:n]
}

// keepPaths builds a projection keeping the given root-to-leaf paths whole.
func keepPaths(paths ...[]string) *Projection {
	p := NewProjection()
	for _, path := range paths {
		t := p
		for _, step := range path {
			t = t.Child(step)
		}
		t.MarkAll()
	}
	p.Fingerprint()
	return p
}

func benchDocs() []benchDoc {
	// The 512 B <job> of http-forward and rm-paced; the rule reads id and key.
	head := "<job><id>123456</id><key>00c0ffee00c0ffee</key><pad>"
	const tail = "</pad></job>"
	job := head + filler(512-len(head)-len(tail)) + tail

	// The 2 KB <invoice> of history-lookup; the slice reads customerID and amount.
	head = "<invoice><invoiceID>17-3</invoiceID><customerID>c17</customerID><amount>412</amount><lines>"
	const itail = "</lines></invoice>"
	invoice := head + filler(2048-len(head)-len(itail)) + itail

	// A procurement <offerRequest> with 20 items; the rules read the ids.
	var b strings.Builder
	b.WriteString("<offerRequest><requestID>r42</requestID><customerID>c7</customerID><items>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, `<item sku="sku-%d" restricted="no"><qty>%d</qty></item>`, i*17, 1+i*9)
	}
	b.WriteString("</items></offerRequest>")

	return []benchDoc{
		{"job", []byte(job), keepPaths([]string{"job", "id"}, []string{"job", "key"})},
		{"invoice", []byte(invoice), keepPaths([]string{"invoice", "customerID"}, []string{"invoice", "amount"})},
		{"offerRequest", []byte(b.String()), keepPaths([]string{"offerRequest", "requestID"}, []string{"offerRequest", "customerID"})},
	}
}

func BenchmarkParse(b *testing.B) {
	for _, d := range benchDocs() {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d.wire)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(d.wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStreamEncode(b *testing.B) {
	for _, d := range benchDocs() {
		for _, pr := range []struct {
			name string
			proj *Projection
		}{{"full", nil}, {"projected", d.proj}} {
			b.Run(d.name+"/"+pr.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(d.wire)))
				var dst []byte
				for i := 0; i < b.N; i++ {
					var err error
					if dst, err = StreamEncode(dst[:0], d.wire, pr.proj); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
