package rule

import (
	"fmt"
	"maps"
	"slices"

	"demaq/internal/xpath"
)

// Graph is the dependency graph of a program, built once at deploy (Sec.
// 4.4.1) and read by every consumer: the slicing view asks it which slices
// a message joins, the batch executor which queues' batches can conflict,
// and path projection which rules run on a queue's messages. Its nodes are
// queues and slicings; a rule's edges are kept on the rule (Rule.Reads,
// Enqueues and Resets). It is the dependency graph of a Datalog-style rule
// program, the one its stratification is read off (May's XPathLog); here it
// decides per queue whether R1–R4 can hold at all, and per member they stay
// the one dynamic check.
type Graph struct {
	// SlicingProps maps slicing name → property name.
	SlicingProps map[string]string
	// Queues maps each declared queue to its node; an undeclared queue
	// reads as the zero QueueNode, which joins no slicing and runs nothing.
	Queues map[string]QueueNode
}

// QueueNode is what a message entering a queue joins and runs.
type QueueNode struct {
	// Joins are the slicings the message joins, sorted: those over a
	// property defined on the queue. A value that only travelled to the
	// queue — inherited, or set by the enqueuing rule — forms no slice.
	Joins []string
	// Rules are the rules the message can run, in declaration order: the
	// queue's own and those of the slicings it joins.
	Rules []*Rule
	// Conflicts reports whether two members of a batch on the queue can
	// meet one of R1–R4 (conflicts); when false, every member is batchable.
	Conflicts bool
}

// buildGraph derives the graph from the program's rules, given in
// declaration order. An enqueue into an undeclared queue and a reset of an
// undeclared slicing are deploy errors.
func (p *Program) buildGraph(rules []*Rule) error {
	p.Queues = make(map[string]QueueNode, len(p.QueuePlans))
	for q := range p.QueuePlans {
		var qn QueueNode
		for s, prop := range p.SlicingProps {
			if def, _ := p.Properties.Def(prop); def.PerQueue[q] != nil {
				qn.Joins = append(qn.Joins, s)
			}
		}
		slices.Sort(qn.Joins)
		for _, r := range rules {
			if r.OnSlicing && slices.Contains(qn.Joins, r.Target) || !r.OnSlicing && r.Target == q {
				qn.Rules = append(qn.Rules, r)
			}
		}
		p.Queues[q] = qn
	}
	all := slices.Sorted(maps.Keys(p.QueuePlans))
	for _, r := range rules {
		for _, rd := range r.QueueReads {
			switch {
			case rd.Computed:
				r.Reads = append(r.Reads, all...)
			case rd.Queue == "": // a slicing rule's own message
				for _, q := range all {
					if slices.Contains(p.Queues[q].Joins, r.Target) {
						r.Reads = append(r.Reads, q)
					}
				}
			default:
				r.Reads = append(r.Reads, rd.Queue)
			}
		}
		var err error
		xpath.Inspect(r.Body.AST(), func(e xpath.Expr) bool {
			switch x := e.(type) {
			case *xpath.EnqueueExpr:
				if _, ok := p.QueuePlans[x.Queue]; !ok {
					err = fmt.Errorf("rule: %q: enqueue into unknown queue %q", r.Name, x.Queue)
				}
				r.Enqueues = append(r.Enqueues, x.Queue)
			case *xpath.ResetExpr:
				s := x.Slicing
				if s == "" { // bare reset: the rule's own slice
					s = r.Target
				}
				if _, ok := p.SlicingProps[s]; !ok {
					err = fmt.Errorf("rule: %q: reset of unknown slicing %q", r.Name, s)
				}
				r.Resets = append(r.Resets, s)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		r.Reads, r.Enqueues, r.Resets = set(r.Reads), set(r.Enqueues), set(r.Resets)
	}
	for q, qn := range p.Queues {
		qn.Conflicts = p.conflicts(qn)
		p.Queues[q] = qn
	}
	return nil
}

// conflicts reports whether a write of the rules of node qn — a slice reset,
// a slice a new message joins, a queue enqueued into — can meet a read of
// them or the membership of a message of the queue.
func (p *Program) conflicts(qn QueueNode) bool {
	resets, joins, enqueues := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, r := range qn.Rules {
		for _, s := range r.Resets {
			resets[s] = true
		}
		for _, q := range r.Enqueues {
			enqueues[q] = true
			for _, s := range p.Queues[q].Joins {
				joins[s] = true
			}
		}
	}
	for s := range resets {
		if joins[s] || slices.Contains(qn.Joins, s) { // R3; R4, and R1 for a reset slice
			return true
		}
	}
	for _, r := range qn.Rules {
		if r.OnSlicing && joins[r.Target] || slices.ContainsFunc(r.Reads, func(q string) bool { return enqueues[q] }) {
			return true // R1 for a joined slice; R2
		}
	}
	return false
}

// set sorts names and drops repeats.
func set(names []string) []string {
	slices.Sort(names)
	return slices.Compact(names)
}
