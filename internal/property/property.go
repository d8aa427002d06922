// Package property implements Demaq message properties (paper Sec. 2.2):
// typed key/value metadata attached to messages at creation time and fixed
// for the message's lifetime. Values are established, in order of
// precedence, by the system, explicitly by the enqueuing rule, by
// inheritance from the triggering message, or computed by an expression
// evaluated against the message body (which may also serve as a default).
package property

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// System property names set by the engine (Sec. 2.2 "System"). The message
// store leaves the whole SystemPrefix namespace out of its property index.
const (
	SystemPrefix    = "demaq:"
	SysCreatingRule = SystemPrefix + "rule"       // name of the rule that created the message
	SysCreated      = SystemPrefix + "created"    // creation timestamp
	SysSender       = SystemPrefix + "sender"     // sender of incoming gateway messages
	SysConnection   = SystemPrefix + "connection" // connection handle for synchronous replies
	// SysMultiValued prefixes the marker MultiValued names.
	SysMultiValued = SystemPrefix + "multi:"
)

// MultiValued names the marker a message carries, with the value true, when
// the value expression of its fixed property name yielded more than one
// item: the property keeps only the first, so an index lookup by value
// alone would miss the others. The message store indexes these markers,
// unlike the rest of the system namespace.
func MultiValued(name string) string { return SysMultiValued + name }

// Def is one property definition.
type Def struct {
	Name      string
	Type      xdm.Type
	Inherited bool
	Fixed     bool
	// PerQueue maps a queue name to the value expression declared for it;
	// the expression is evaluated with the new message's document as
	// context (computed properties), so constants act as defaults.
	PerQueue map[string]*xquery.Compiled
}

// Queues returns the queues the property is defined on, sorted.
func (d *Def) Queues() []string {
	out := make([]string, 0, len(d.PerQueue))
	for q := range d.PerQueue {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// Manager holds all property definitions of an application.
type Manager struct {
	mu   sync.RWMutex
	defs map[string]*Def
}

// NewManager returns an empty property manager.
func NewManager() *Manager {
	return &Manager{defs: map[string]*Def{}}
}

// Define registers a property definition.
func (m *Manager) Define(d *Def) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.defs[d.Name]; ok {
		return fmt.Errorf("property: %q already defined", d.Name)
	}
	m.defs[d.Name] = d
	return nil
}

// Def returns a definition by name.
func (m *Manager) Def(name string) (*Def, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.defs[name]
	return d, ok
}

// DefsForQueue returns the definitions declared on the given queue.
func (m *Manager) DefsForQueue(queue string) []*Def {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Def
	for _, d := range m.defs {
		if _, ok := d.PerQueue[queue]; ok {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nullRuntime backs computed-property evaluation: property value
// expressions see only the message body, never queues or slices.
type nullRuntime struct{ now time.Time }

func (nullRuntime) Message() (*xmldom.Node, error) {
	return nil, fmt.Errorf("property: qs:message() not available in property expressions")
}
func (nullRuntime) Queue(string) ([]*xmldom.Node, error) {
	return nil, fmt.Errorf("property: qs:queue() not available in property expressions")
}
func (nullRuntime) Property(string) (xdm.Value, error) {
	return xdm.Value{}, fmt.Errorf("property: qs:property() not available in property expressions")
}
func (nullRuntime) Slice() ([]*xmldom.Node, error) {
	return nil, fmt.Errorf("property: qs:slice() not available in property expressions")
}
func (nullRuntime) SliceKey() (xdm.Value, error) {
	return xdm.Value{}, fmt.Errorf("property: qs:slicekey() not available in property expressions")
}
func (nullRuntime) Collection(string) ([]*xmldom.Node, error) { return nil, nil }
func (r nullRuntime) Now() time.Time                          { return r.now }

// Evaluate computes the full property set of a message entering queue.
//
//	doc       — the new message's document
//	explicit  — properties set by "with ... value ..." clauses
//	parent    — properties of the triggering message (nil for external)
//	system    — system-assigned properties
//
// Precedence follows the paper: fixed properties always take their
// computed value and reject explicit assignment; otherwise explicit wins,
// then inheritance, then the computed/default expression.
func (m *Manager) Evaluate(queue string, doc *xmldom.Node, explicit, parent, system map[string]xdm.Value, now time.Time) (map[string]xdm.Value, error) {
	out := map[string]xdm.Value{}
	for k, v := range system {
		out[k] = v
	}
	m.mu.RLock()
	defer m.mu.RUnlock()

	// Explicit values must reference defined, non-fixed properties on this
	// queue (system properties may also be set explicitly, e.g. Sender).
	for k, v := range explicit {
		if isSystemName(k) {
			out[k] = v
			continue
		}
		d, ok := m.defs[k]
		if !ok {
			return nil, fmt.Errorf("property: %q is not defined", k)
		}
		if d.Fixed {
			return nil, fmt.Errorf("property: %q is fixed and cannot be set explicitly", k)
		}
		if _, onQueue := d.PerQueue[queue]; !onQueue {
			return nil, fmt.Errorf("property: %q is not defined on queue %q", k, queue)
		}
		cv, err := v.Cast(d.Type)
		if err != nil {
			return nil, fmt.Errorf("property: %q: %v", k, err)
		}
		out[k] = cv
	}

	for _, d := range m.defs {
		expr, onQueue := d.PerQueue[queue]
		if !onQueue {
			continue
		}
		if _, set := out[d.Name]; set && !d.Fixed {
			continue // explicit value stands
		}
		if !d.Fixed && d.Inherited && parent != nil {
			if pv, ok := parent[d.Name]; ok {
				out[d.Name] = pv
				continue
			}
		}
		if expr == nil {
			continue
		}
		seq, _, err := xquery.Eval(expr, nullRuntime{now: now}, xquery.EvalOptions{ContextDoc: doc})
		if err != nil {
			return nil, fmt.Errorf("property: %q: %v", d.Name, err)
		}
		if len(seq) == 0 {
			continue // no value derivable; property absent
		}
		v, err := xdm.Atomize(seq[0]).Cast(d.Type)
		if err != nil {
			return nil, fmt.Errorf("property: %q: %v", d.Name, err)
		}
		out[d.Name] = v
		if d.Fixed && len(seq) > 1 {
			out[MultiValued(d.Name)] = xdm.NewBool(true)
		}
	}
	return out, nil
}

// Unevaluated is the property set of a message entering queue whose
// properties failed to evaluate: the system properties, plus the
// multi-valued marker of each of the queue's fixed properties. The message
// has no value for them, so an index lookup by value alone would miss it
// even where its document holds the value; the marker makes every such
// lookup fetch it.
func (m *Manager) Unevaluated(queue string, system map[string]xdm.Value) map[string]xdm.Value {
	out := make(map[string]xdm.Value, len(system))
	for k, v := range system {
		out[k] = v
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, d := range m.defs {
		if _, onQueue := d.PerQueue[queue]; onQueue && d.Fixed {
			out[MultiValued(d.Name)] = xdm.NewBool(true)
		}
	}
	return out
}

func isSystemName(name string) bool {
	switch name {
	case SysCreatingRule, SysCreated, SysSender, SysConnection,
		"Sender", "Connection", "timeout", "target":
		return true
	}
	return false
}
