package rule

import (
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// QueueProjection computes the static path projection of a queue: the union
// of every element path that any expression evaluated against the queue's
// messages can reference — the bodies of the rules they can run (the
// queue's own and the slicing rules of the slicings they join, Graph), and
// the property value expressions bound to the queue.
//
// The result is nil when the analysis is imprecise (for example a `//`
// descent or an externally bound variable) or when the union covers the
// whole document anyway; callers then use full ingest for the queue. The
// returned projection is finalized (fingerprinted) and safe to share
// read-only across goroutines.
func (p *Program) QueueProjection(queue string) *xmldom.Projection {
	qn, ok := p.Queues[queue]
	if !ok {
		return nil
	}
	b := xquery.NewProjectionBuilder()
	for _, r := range qn.Rules {
		b.Add(r.Body)
	}
	for _, def := range p.Properties.DefsForQueue(queue) {
		b.Add(def.PerQueue[queue])
	}
	return b.Build()
}
