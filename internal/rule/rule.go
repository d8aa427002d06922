// Package rule implements the Demaq rule compiler (paper Sec. 4.4.1).
//
// On deployment it turns a parsed application (internal/qdl) into an
// executable Program: for each queue and slicing it collects the attached
// rules, rewrites their bodies (defaulting context-dependent functions like
// qs:queue(), inlining fixed properties like view merging), statically
// checks them, builds a combined per-queue plan and the program's
// dependency graph (Graph). The plan optionally
// carries a condition-dispatch index in the spirit of XML filtering: rules
// whose condition requires the presence of a specific element are only
// evaluated when the triggering message contains that element (experiment
// E4 measures the effect).
package rule

import (
	"fmt"
	"strings"

	"demaq/internal/property"
	"demaq/internal/qdl"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
	"demaq/internal/xquery"
)

// Options select between the optimizing compiler and the paper's
// unoptimized baseline. The zero value is production.
type Options struct {
	// Unoptimized turns the plan optimizations of Sec. 4.4.1 off at once:
	// no condition-dispatch index (element triggers, property prefilters,
	// index probes) and no inlining of fixed properties (view merging).
	// Every rule is evaluated for every message of its queue, as a compiled
	// program like any other. It is the baseline of experiment E4 and the
	// reference of the engine's rule-optimization differential test.
	Unoptimized bool
}

// DefaultOptions enables all optimizations; it is the zero Options.
func DefaultOptions() Options {
	return Options{}
}

// PropPred is a necessary property condition of a rule: the rule can only
// fire when the message property Name, if present, equals Value. It is
// checked against the already-materialized property map, before the
// message document is touched.
type PropPred struct {
	Name  string
	Value string
}

// AccessPath is the planner's choice of how dispatch establishes a rule's
// property prefilter: probing the message's materialized property map
// one message at a time, or answering the whole claimed batch with range
// scans of the message store's (property, value) secondary index.
type AccessPath uint8

const (
	// AccessScan: no property prefilter; the rule is evaluated for every
	// message (element triggers still apply).
	AccessScan AccessPath = iota
	// AccessPropFilter: check PropPreds against the property map per
	// message.
	AccessPropFilter
	// AccessIndexProbe: the batch executor may resolve PropPreds for all
	// claimed messages at once by probing the secondary index over the
	// batch's id window; per-message propMatch remains the fallback for
	// messages the probe did not cover.
	AccessIndexProbe
)

// Rule is one compiled rule.
type Rule struct {
	Name       string
	Target     string // queue or slicing name
	OnSlicing  bool
	ErrorQueue string
	Body       *xquery.Compiled
	// Trigger is the local element name whose presence in the message is a
	// necessary condition for the rule to produce updates; "" means the
	// rule must always be evaluated.
	Trigger string
	// PropPreds are cheap property equality prefilters (see PropPred).
	PropPreds []PropPred
	// Access is the planner-chosen prefilter strategy (see AccessPath).
	Access AccessPath
	// QueueReads are the body's qs:queue() reads in source order, each
	// with its access path: an index probe or a whole-queue read.
	QueueReads []QueueRead
	// Reads, Enqueues and Resets are the rule's edges in the program's
	// Graph, each sorted: the queues its qs:queue() calls read (a computed
	// argument reads every queue, a slicing rule's argument-less call the
	// queues whose messages join its slicing), the queues it enqueues into
	// and the slicings it resets. A slicing rule also reads the slices of
	// its own slicing, Target.
	Reads, Enqueues, Resets []string
	// Order is the declaration position, preserved when combining plans.
	Order int
}

// propMatch reports whether the property prefilters admit a message with
// the given properties. An absent property admits the rule: only a present,
// different value proves the condition false.
func (r *Rule) propMatch(props map[string]xdm.Value) bool {
	for _, pp := range r.PropPreds {
		if v, ok := props[pp.Name]; ok &&
			(v.T == xdm.TypeString || v.T == xdm.TypeUntyped) && v.StringValue() != pp.Value {
			return false
		}
	}
	return true
}

// Plan is the combined execution plan of one queue or slicing: all attached
// rules in declaration order, with cached dispatch capabilities.
type Plan struct {
	Target string
	Rules  []*Rule
	// hasTriggers / hasPropPreds cache whether any rule carries an element
	// trigger / a property prefilter, enabling the no-dispatch fast path.
	hasTriggers  bool
	hasPropPreds bool
	// probes are the posting lists backing AccessIndexProbe rules.
	probes []IndexProbe
}

// IndexProbe names the (property, value) posting list whose range scan
// answers the prefilter of one rule (Plan.Rules[Rule]) during batch
// dispatch. A rule with several predicates contributes several probes; its
// mask bit is set only when all of them hit.
type IndexProbe struct {
	Rule        int
	Name, Value string
}

// IndexProbes returns the plan's posting-list probes, in rule order.
func (p *Plan) IndexProbes() []IndexProbe { return p.probes }

// IndexDispatchable reports whether batch dispatch may resolve this plan's
// property prefilters through index probes: at least one rule chose
// AccessIndexProbe and the rule count fits the uint64 probe mask.
func (p *Plan) IndexDispatchable() bool {
	return len(p.probes) > 0 && len(p.Rules) <= 64
}

// planAccess caches the plan's dispatch capabilities and assigns each rule
// its access path. Index probes are chosen for every prefiltered rule when
// the plan fits the probe mask; past 64 rules the per-message map check
// stays in place.
func (p *Plan) planAccess() {
	wide := len(p.Rules) > 64
	for i, r := range p.Rules {
		p.hasTriggers = p.hasTriggers || r.Trigger != ""
		p.hasPropPreds = p.hasPropPreds || len(r.PropPreds) > 0
		switch {
		case len(r.PropPreds) == 0:
			r.Access = AccessScan
		case wide:
			r.Access = AccessPropFilter
		default:
			r.Access = AccessIndexProbe
			for _, pp := range r.PropPreds {
				p.probes = append(p.probes, IndexProbe{Rule: i, Name: pp.Name, Value: pp.Value})
			}
		}
	}
}

// Program is a fully compiled application.
type Program struct {
	App        *qdl.Application
	Properties *property.Manager
	QueuePlans map[string]*Plan
	SlicePlans map[string]*Plan
	Graph
	opts Options
}

// Compile deploys an application.
func Compile(app *qdl.Application, opts Options) (*Program, error) {
	prog := &Program{
		App:        app,
		Properties: property.NewManager(),
		QueuePlans: map[string]*Plan{},
		SlicePlans: map[string]*Plan{},
		Graph:      Graph{SlicingProps: map[string]string{}},
		opts:       opts,
	}
	queues := prog.QueuePlans
	for _, q := range app.Queues {
		if _, dup := queues[q.Name]; dup {
			return nil, fmt.Errorf("rule: queue %q declared twice", q.Name)
		}
		queues[q.Name] = &Plan{Target: q.Name}
	}
	for _, q := range app.Queues {
		if q.ErrorQueue != "" {
			if _, ok := queues[q.ErrorQueue]; !ok {
				return nil, fmt.Errorf("rule: queue %q: unknown error queue %q", q.Name, q.ErrorQueue)
			}
		}
	}

	// Properties: compile value expressions per queue.
	for _, pd := range app.Properties {
		def := &property.Def{
			Name: pd.Name, Type: pd.Type,
			Inherited: pd.Inherited, Fixed: pd.Fixed,
			PerQueue: map[string]*xquery.Compiled{},
		}
		for _, b := range pd.Bindings {
			compiled, err := xquery.Compile(b.Value, xquery.CompileOptions{})
			if err != nil {
				return nil, fmt.Errorf("rule: property %q: %v", pd.Name, err)
			}
			if compiled.Updating() {
				return nil, fmt.Errorf("rule: property %q: value expression must not be updating", pd.Name)
			}
			for _, q := range b.Queues {
				if _, ok := queues[q]; !ok {
					return nil, fmt.Errorf("rule: property %q: unknown queue %q", pd.Name, q)
				}
				if _, dup := def.PerQueue[q]; dup {
					return nil, fmt.Errorf("rule: property %q: queue %q bound twice", pd.Name, q)
				}
				def.PerQueue[q] = compiled
			}
		}
		if err := prog.Properties.Define(def); err != nil {
			return nil, fmt.Errorf("rule: %v", err)
		}
	}

	// Slicings.
	for _, sd := range app.Slicings {
		if _, ok := prog.Properties.Def(sd.Property); !ok {
			return nil, fmt.Errorf("rule: slicing %q: unknown property %q", sd.Name, sd.Property)
		}
		if strings.HasPrefix(sd.Property, property.SystemPrefix) {
			return nil, fmt.Errorf("rule: slicing %q: %q is a system property; a slice is a range of the property index, which leaves %s out",
				sd.Name, sd.Property, property.SystemPrefix)
		}
		if _, dup := prog.SlicingProps[sd.Name]; dup {
			return nil, fmt.Errorf("rule: slicing %q declared twice", sd.Name)
		}
		prog.SlicingProps[sd.Name] = sd.Property
		prog.SlicePlans[sd.Name] = &Plan{Target: sd.Name}
	}

	// Rules.
	var rules []*Rule // in declaration order
	for i, rd := range app.Rules {
		onSlicing := false
		var plan *Plan
		if p, ok := prog.QueuePlans[rd.Target]; ok {
			plan = p
		} else if p, ok := prog.SlicePlans[rd.Target]; ok {
			plan = p
			onSlicing = true
		} else {
			return nil, fmt.Errorf("rule: %q targets unknown queue or slicing %q", rd.Name, rd.Target)
		}
		if rd.ErrorQueue != "" {
			if _, ok := queues[rd.ErrorQueue]; !ok {
				return nil, fmt.Errorf("rule: %q: unknown error queue %q", rd.Name, rd.ErrorQueue)
			}
		}
		body := rd.Body
		// Property prefilters are read off the original body: the
		// view-merging rewrite below may replace the qs:property() calls
		// they are derived from.
		var propPreds []PropPred
		if !opts.Unoptimized && !onSlicing {
			propPreds = analyzePropPreds(body, prog)
		}
		queue := rd.Target
		if onSlicing {
			queue = ""
		}
		body, probes, reads := rewrite(body, prog, queue)
		compiled, err := xquery.Compile(body, xquery.CompileOptions{AllowSlice: onSlicing, QueueProbes: probes})
		if err != nil {
			return nil, fmt.Errorf("rule: %q: %v", rd.Name, err)
		}
		r := &Rule{
			Name: rd.Name, Target: rd.Target, OnSlicing: onSlicing,
			ErrorQueue: rd.ErrorQueue, Body: compiled, Order: i,
			PropPreds: propPreds, QueueReads: reads,
		}
		if !opts.Unoptimized {
			r.Trigger = analyzeTrigger(body)
		}
		plan.Rules = append(plan.Rules, r)
		rules = append(rules, r)
	}
	if err := prog.buildGraph(rules); err != nil {
		return nil, err
	}

	// Only queue plans dispatch on properties; slice plans never carry
	// PropPreds.
	for _, plans := range []map[string]*Plan{prog.QueuePlans, prog.SlicePlans} {
		for _, plan := range plans {
			plan.planAccess()
		}
	}
	return prog, nil
}

// MustCompile compiles source text or panics; for tests and fixtures.
func MustCompile(src string, opts Options) *Program {
	app, err := qdl.Parse(src)
	if err != nil {
		panic(err)
	}
	prog, err := Compile(app, opts)
	if err != nil {
		panic(err)
	}
	return prog
}

// Select returns the rules to evaluate for a message, in declaration
// order, applying the two dispatch prefilters: property equality checks
// against the already-materialized property map first, then element
// triggers against the document's element names. names is invoked lazily,
// only when a property-surviving rule actually carries an element trigger —
// a rule dispatched away on properties never touches the document.
func (p *Plan) Select(props map[string]xdm.Value, names func() map[string]bool) []*Rule {
	if !p.hasTriggers && (!p.hasPropPreds || len(props) == 0) {
		return p.Rules
	}
	var nm map[string]bool
	sel := make([]*Rule, 0, len(p.Rules))
	for _, r := range p.Rules {
		if len(props) > 0 && !r.propMatch(props) {
			continue
		}
		if r.Trigger != "" {
			if nm == nil {
				nm = names()
			}
			if !nm[r.Trigger] {
				continue
			}
		}
		sel = append(sel, r)
	}
	return sel
}

// SelectIndexed is Select with precomputed probe results: bit i of matched
// set means the batch index probe proved message membership in every
// posting list of Rules[i]'s predicates — propMatch is then true by
// construction and is skipped. An unset bit is ambiguous (the property may
// be absent, which admits the rule), so it falls back to the per-message
// map check; the two paths therefore select exactly the same rules, which
// the differential tests pin.
func (p *Plan) SelectIndexed(props map[string]xdm.Value, matched uint64, names func() map[string]bool) []*Rule {
	if !p.hasTriggers && (!p.hasPropPreds || len(props) == 0) {
		return p.Rules
	}
	var nm map[string]bool
	sel := make([]*Rule, 0, len(p.Rules))
	for i, r := range p.Rules {
		probed := r.Access == AccessIndexProbe && matched&(1<<uint(i)) != 0
		if !probed && len(props) > 0 && !r.propMatch(props) {
			continue
		}
		if r.Trigger != "" {
			if nm == nil {
				nm = names()
			}
			if !nm[r.Trigger] {
				continue
			}
		}
		sel = append(sel, r)
	}
	return sel
}

// ElementNames collects the distinct local element names of a document,
// the dispatch key set (one DOM walk per message).
func ElementNames(doc *xmldom.Node) map[string]bool {
	out := map[string]bool{}
	var walk func(n *xmldom.Node)
	walk = func(n *xmldom.Node) {
		if n.Kind == xmldom.ElementNode {
			out[n.Name.Local] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)
	return out
}

// analyzeTrigger extracts a necessary element-presence condition from a
// rule body of the form "if (C) then T" with no else branch: if C is a
// rooted path (or a conjunction containing one), the name of its first
// named step must occur in the message for the rule to fire.
func analyzeTrigger(body xpath.Expr) string {
	ife, ok := body.(*xpath.IfExpr)
	if !ok || ife.Else != nil {
		return ""
	}
	return pathTrigger(ife.Cond)
}

func pathTrigger(e xpath.Expr) string {
	switch x := e.(type) {
	case *xpath.PathExpr:
		if !x.Rooted || x.Start != nil {
			return ""
		}
		for _, st := range x.Steps {
			if st.Test.Kind == xpath.TestName && (st.Axis == xpath.AxisChild || st.Axis == xpath.AxisDescendant) {
				return st.Test.Name.Local
			}
			if st.Axis != xpath.AxisDescendantOrSelf || st.Test.Kind != xpath.TestNode {
				return ""
			}
		}
		return ""
	case *xpath.BinaryExpr:
		if x.Op == xpath.BinAnd {
			// Any conjunct is a necessary condition; prefer the left.
			if t := pathTrigger(x.Left); t != "" {
				return t
			}
			return pathTrigger(x.Right)
		}
	case *xpath.FuncCall:
		if x.Prefix == "" && x.Local == "exists" && len(x.Args) == 1 {
			return pathTrigger(x.Args[0])
		}
	case *xpath.ComparisonExpr:
		// "//a = 5": presence of a is necessary for a general comparison
		// against a non-empty literal.
		if x.General {
			if t := pathTrigger(x.Left); t != "" {
				if _, isLit := x.Right.(*xpath.Literal); isLit {
					return t
				}
			}
		}
	}
	return ""
}

// analyzePropPreds extracts a necessary property-equality condition from a
// rule body of the form "if (C) then T" with no else branch: when the
// LEFTMOST conjunct of C is qs:property("p") = "literal" (either operand
// order) over a string-typed property, the rule cannot fire unless the
// message's p property, when present, equals the literal. The engine checks
// the predicate against the property map before any document access.
//
// Only the leftmost conjunct is sound to prefilter on: "and" evaluates
// left-to-right with short-circuiting, so when the leftmost conjunct is
// false evaluation never reaches the rest of the condition — a
// later conjunct that would raise a dynamic error (and route the message
// to an error queue, Sec. 3.6) is unreachable, and skipping the rule is
// observationally identical. A property test in any other position may be
// preceded by an erroring conjunct, where skipping would swallow the
// error-queue message.
func analyzePropPreds(body xpath.Expr, prog *Program) []PropPred {
	ife, ok := body.(*xpath.IfExpr)
	if !ok || ife.Else != nil {
		return nil
	}
	leftmost := ife.Cond
	for {
		b, ok := leftmost.(*xpath.BinaryExpr)
		if !ok || b.Op != xpath.BinAnd {
			break
		}
		leftmost = b.Left
	}
	if pp, ok := propEquality(leftmost, prog); ok {
		return []PropPred{pp}
	}
	return nil
}

// propEquality matches qs:property("p") = "lit" (or the mirrored form) for
// a declared string-typed property.
func propEquality(e xpath.Expr, prog *Program) (PropPred, bool) {
	cmp, ok := e.(*xpath.ComparisonExpr)
	if !ok || !cmp.General || cmp.Op != xdm.OpEq {
		return PropPred{}, false
	}
	name, ok := propCallName(cmp.Left, prog)
	lit, lok := stringLiteral(cmp.Right)
	if !ok || !lok {
		name, ok = propCallName(cmp.Right, prog)
		lit, lok = stringLiteral(cmp.Left)
		if !ok || !lok {
			return PropPred{}, false
		}
	}
	return PropPred{Name: name, Value: lit}, true
}

func propCallName(e xpath.Expr, prog *Program) (string, bool) {
	fc, ok := e.(*xpath.FuncCall)
	if !ok || fc.Prefix != "qs" || fc.Local != "property" || len(fc.Args) != 1 {
		return "", false
	}
	name, ok := stringLiteral(fc.Args[0])
	if !ok {
		return "", false
	}
	def, ok := prog.Properties.Def(name)
	if !ok || def.Type != xdm.TypeString {
		return "", false
	}
	// A property the view-merging rewrite will inline is off limits: the
	// deployed body then re-evaluates the defining expression against the
	// document, which can error (e.g. string() of a multi-node match)
	// where the materialized property map cannot — skipping the rule
	// would silently swallow the Sec. 3.6 error-queue message. Only the
	// qs:property() runtime lookup is guaranteed to agree with the map.
	if def.Fixed {
		return "", false
	}
	return name, true
}

func stringLiteral(e xpath.Expr) (string, bool) {
	lit, ok := e.(*xpath.Literal)
	if !ok || lit.Value.T != xdm.TypeString {
		return "", false
	}
	return lit.Value.S, true
}
