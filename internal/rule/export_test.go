package rule

// RulesFor selects the rules of the plan that must be evaluated for a
// message containing the given element names, in declaration order: Select
// without a property view. With dispatch disabled (or for rules without an
// analyzable trigger) every rule is returned — the canonical plan of
// Sec. 4.4.1.
func (p *Plan) RulesFor(elementNames map[string]bool) []*Rule {
	return p.Select(nil, func() map[string]bool { return elementNames })
}
