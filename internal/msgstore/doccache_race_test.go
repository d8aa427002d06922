package msgstore

import (
	"sync"
	"testing"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// raceRuntime is a minimal xquery.Runtime over a single shared document.
type raceRuntime struct{ doc *xmldom.Node }

func (r raceRuntime) Message() (*xmldom.Node, error)          { return r.doc, nil }
func (r raceRuntime) Queue(string) ([]*xmldom.Node, error)    { return []*xmldom.Node{r.doc}, nil }
func (r raceRuntime) Property(string) (xdm.Value, error)      { return xdm.NewString("p"), nil }
func (r raceRuntime) Slice() ([]*xmldom.Node, error)          { return []*xmldom.Node{r.doc}, nil }
func (r raceRuntime) SliceKey() (xdm.Value, error)            { return xdm.NewString("k"), nil }
func (raceRuntime) Collection(string) ([]*xmldom.Node, error) { return nil, nil }
func (raceRuntime) Now() time.Time                            { return time.Unix(0, 0).UTC() }

// TestDocCacheSharedEvaluationRace pins the immutability contract of the
// document cache: Doc returns one shared *xmldom.Node to every caller, and
// concurrent rule evaluations over that shared tree must be race-free
// because evaluation never mutates documents (reads traverse, constructors
// deep-copy). Run under -race this fails if any evaluation path writes to
// a shared node.
func TestDocCacheSharedEvaluationRace(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	tx := ms.Begin()
	doc := xmldom.MustParse(`<order><id>42</id><items><item n="1">a</item><item n="2">b</item></items><total>99.5</total></order>`)
	if err := tx.Enqueue("q", doc, map[string]xdm.Value{"k": xdm.NewString("v")}, time.Now()); err != nil {
		t.Fatal(err)
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	id := out[0].ID

	shared, err := ms.Doc(id)
	if err != nil {
		t.Fatal(err)
	}

	// The expressions cover the mutation-prone paths: axis navigation,
	// predicates, atomization of string values, and constructors that copy
	// subtrees of the shared document into new messages.
	exprs := []*xquery.Compiled{
		xquery.MustCompile(`//item[@n = "2"]`, xquery.CompileOptions{}),
		xquery.MustCompile(`sum(//total) + count(//item)`, xquery.CompileOptions{}),
		xquery.MustCompile(`<copy>{//items}</copy>`, xquery.CompileOptions{}),
		xquery.MustCompile(`string-join(for $i in //item return string($i), ",")`, xquery.CompileOptions{}),
		xquery.MustCompile(`do enqueue <ack id="{//id}">{//items/item[1]}</ack> into q`, xquery.CompileOptions{}),
	}

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := ms.Doc(id)
				if err != nil {
					t.Error(err)
					return
				}
				if got != shared {
					t.Error("doc cache returned a different pointer: documents must be shared")
					return
				}
				rt := raceRuntime{doc: got}
				for _, c := range exprs {
					if _, _, err := xquery.Eval(c, rt, xquery.EvalOptions{ContextDoc: got}); err != nil {
						t.Errorf("eval: %v", err)
						return
					}
				}
				_ = got.StringValue()
				_ = xmldom.Serialize(got)
			}
		}()
	}
	wg.Wait()
}
