package xquery

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// function describes one built-in function implementation.
type function struct {
	name     string
	minArgs  int
	maxArgs  int  // -1: variadic
	slice    bool // only available in rules on slicings
	needsCtx bool // reads the focus when called without arguments
	docs     bool // returns the documents of a queue or slice
	call     func(ev *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error)
}

// resolveFunction looks up prefix:local with the given arity. The fn:
// prefix (and no prefix) designate the core library; qs: designates the
// Demaq queue-system library.
func resolveFunction(prefix, local string, nargs int) (*function, error) {
	key := local
	switch prefix {
	case "", "fn":
	case "qs":
		key = "qs:" + local
	default:
		return nil, fmt.Errorf("unknown function namespace prefix %q", prefix)
	}
	f, ok := functions[key]
	if !ok {
		return nil, fmt.Errorf("unknown function %s()", key)
	}
	if nargs < f.minArgs || (f.maxArgs >= 0 && nargs > f.maxArgs) {
		return nil, fmt.Errorf("wrong number of arguments for %s(): got %d", key, nargs)
	}
	return f, nil
}

// one-string-arg helper: returns "" for empty sequence per fn:string rules.
func argString(args []xdm.Sequence, i int) (string, error) {
	if i >= len(args) || len(args[i]) == 0 {
		return "", nil
	}
	if len(args[i]) > 1 {
		return "", dynErr("XPTY0004", "expected a single item argument")
	}
	return xdm.ItemString(args[i][0]), nil
}

func singleton(v xdm.Value) xdm.Sequence { return xdm.Singleton(v) }

func ctxOrArgNode(ctx *evalCtx, args []xdm.Sequence) (*xmldom.Node, bool, error) {
	if len(args) >= 1 {
		if len(args[0]) == 0 {
			return nil, false, nil
		}
		n, ok := args[0][0].(xdm.Node)
		if !ok {
			return nil, false, dynErr("XPTY0004", "expected a node argument")
		}
		return n.N, true, nil
	}
	if ctx.item == nil {
		return nil, false, dynErr("XPDY0002", "context item is absent")
	}
	n, ok := ctx.item.(xdm.Node)
	if !ok {
		return nil, false, dynErr("XPTY0004", "context item is not a node")
	}
	return n.N, true, nil
}

var functions map[string]*function

func init() {
	functions = map[string]*function{}
	reg := func(f *function) { functions[f.name] = f }

	// --- boolean ---
	reg(&function{name: "true", minArgs: 0, maxArgs: 0, call: func(_ *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewBool(true)), nil
	}})
	reg(&function{name: "false", minArgs: 0, maxArgs: 0, call: func(_ *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewBool(false)), nil
	}})
	reg(&function{name: "not", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBooleanValue(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewBool(!b)), nil
	}})
	reg(&function{name: "boolean", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBooleanValue(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewBool(b)), nil
	}})
	reg(&function{name: "exists", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewBool(len(args[0]) > 0)), nil
	}})
	reg(&function{name: "empty", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewBool(len(args[0]) == 0)), nil
	}})

	// --- sequences ---
	reg(&function{name: "count", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewInteger(int64(len(args[0])))), nil
	}})
	reg(&function{name: "distinct-values", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		vals := xdm.AtomizeSeq(args[0])
		var out xdm.Sequence
		for _, v := range vals {
			dup := false
			for _, o := range out {
				if xdm.DeepEqualValues(v, o.(xdm.Value)) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
		if out == nil {
			return xdm.EmptySequence, nil
		}
		return out, nil
	}})
	reg(&function{name: "reverse", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		in := args[0]
		out := make(xdm.Sequence, len(in))
		for i, it := range in {
			out[len(in)-1-i] = it
		}
		return out, nil
	}})
	reg(&function{name: "subsequence", minArgs: 2, maxArgs: 3, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		in := args[0]
		startF, err := numArg(args, 1)
		if err != nil {
			return nil, err
		}
		length := math.Inf(1)
		if len(args) == 3 {
			length, err = numArg(args, 2)
			if err != nil {
				return nil, err
			}
		}
		start := int(math.Round(startF))
		var out xdm.Sequence
		for i, it := range in {
			p := float64(i + 1)
			if p >= float64(start) && p < float64(start)+length {
				out = append(out, it)
			}
		}
		if out == nil {
			return xdm.EmptySequence, nil
		}
		return out, nil
	}})
	reg(&function{name: "index-of", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[1]) != 1 {
			return nil, dynErr("XPTY0004", "index-of: search value must be a single item")
		}
		needle := xdm.Atomize(args[1][0])
		var out xdm.Sequence
		for i, it := range args[0] {
			if xdm.DeepEqualValues(xdm.Atomize(it), needle) {
				out = append(out, xdm.NewInteger(int64(i+1)))
			}
		}
		if out == nil {
			return xdm.EmptySequence, nil
		}
		return out, nil
	}})
	reg(&function{name: "last", minArgs: 0, maxArgs: 0, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewInteger(int64(ctx.size))), nil
	}})
	reg(&function{name: "position", minArgs: 0, maxArgs: 0, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewInteger(int64(ctx.pos))), nil
	}})

	// --- numeric aggregates ---
	reg(&function{name: "sum", minArgs: 1, maxArgs: 1, call: aggFunc("sum")})
	reg(&function{name: "avg", minArgs: 1, maxArgs: 1, call: aggFunc("avg")})
	reg(&function{name: "min", minArgs: 1, maxArgs: 1, call: aggFunc("min")})
	reg(&function{name: "max", minArgs: 1, maxArgs: 1, call: aggFunc("max")})
	reg(&function{name: "number", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		var v xdm.Value
		if len(args) == 0 {
			if ctx.item == nil {
				return nil, dynErr("XPDY0002", "context item is absent")
			}
			v = xdm.Atomize(ctx.item)
		} else if len(args[0]) == 0 {
			return singleton(xdm.NewDouble(math.NaN())), nil
		} else if len(args[0]) > 1 {
			return nil, dynErr("XPTY0004", "number() requires a single item")
		} else {
			v = xdm.Atomize(args[0][0])
		}
		return singleton(xdm.NewDouble(v.Number())), nil
	}})
	reg(&function{name: "floor", minArgs: 1, maxArgs: 1, call: mathFunc(math.Floor)})
	reg(&function{name: "ceiling", minArgs: 1, maxArgs: 1, call: mathFunc(math.Ceil)})
	reg(&function{name: "round", minArgs: 1, maxArgs: 1, call: mathFunc(func(f float64) float64 { return math.Floor(f + 0.5) })})
	reg(&function{name: "abs", minArgs: 1, maxArgs: 1, call: mathFunc(math.Abs)})

	// --- strings ---
	reg(&function{name: "string", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 0 {
			if ctx.item == nil {
				return nil, dynErr("XPDY0002", "context item is absent")
			}
			return singleton(xdm.NewString(xdm.ItemString(ctx.item))), nil
		}
		s, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewString(s)), nil
	}})
	reg(&function{name: "concat", minArgs: 2, maxArgs: -1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		var sb strings.Builder
		for i := range args {
			s, err := argString(args, i)
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		return singleton(xdm.NewString(sb.String())), nil
	}})
	reg(&function{name: "string-join", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		sep, err := argString(args, 1)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(args[0]))
		for i, it := range args[0] {
			parts[i] = xdm.ItemString(it)
		}
		return singleton(xdm.NewString(strings.Join(parts, sep))), nil
	}})
	reg(&function{name: "contains", minArgs: 2, maxArgs: 2, call: strPredFunc(strings.Contains)})
	reg(&function{name: "starts-with", minArgs: 2, maxArgs: 2, call: strPredFunc(strings.HasPrefix)})
	reg(&function{name: "ends-with", minArgs: 2, maxArgs: 2, call: strPredFunc(strings.HasSuffix)})
	reg(&function{name: "substring-before", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		sub, err := argString(args, 1)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, sub); i >= 0 {
			return singleton(xdm.NewString(s[:i])), nil
		}
		return singleton(xdm.NewString("")), nil
	}})
	reg(&function{name: "substring-after", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		sub, err := argString(args, 1)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, sub); i >= 0 {
			return singleton(xdm.NewString(s[i+len(sub):])), nil
		}
		return singleton(xdm.NewString("")), nil
	}})
	reg(&function{name: "substring", minArgs: 2, maxArgs: 3, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		startF, err := numArg(args, 1)
		if err != nil {
			return nil, err
		}
		length := math.Inf(1)
		if len(args) == 3 {
			length, err = numArg(args, 2)
			if err != nil {
				return nil, err
			}
		}
		start := math.Round(startF)
		var sb strings.Builder
		for i, r := range runes {
			p := float64(i + 1)
			if p >= start && p < start+math.Round(length) {
				sb.WriteRune(r)
			}
		}
		return singleton(xdm.NewString(sb.String())), nil
	}})
	reg(&function{name: "string-length", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		var s string
		if len(args) == 0 {
			if ctx.item == nil {
				return nil, dynErr("XPDY0002", "context item is absent")
			}
			s = xdm.ItemString(ctx.item)
		} else {
			var err error
			s, err = argString(args, 0)
			if err != nil {
				return nil, err
			}
		}
		return singleton(xdm.NewInteger(int64(len([]rune(s))))), nil
	}})
	reg(&function{name: "normalize-space", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		var s string
		if len(args) == 0 {
			if ctx.item == nil {
				return nil, dynErr("XPDY0002", "context item is absent")
			}
			s = xdm.ItemString(ctx.item)
		} else {
			var err error
			s, err = argString(args, 0)
			if err != nil {
				return nil, err
			}
		}
		return singleton(xdm.NewString(strings.Join(strings.Fields(s), " "))), nil
	}})
	reg(&function{name: "upper-case", minArgs: 1, maxArgs: 1, call: strMapFunc(strings.ToUpper)})
	reg(&function{name: "lower-case", minArgs: 1, maxArgs: 1, call: strMapFunc(strings.ToLower)})
	reg(&function{name: "translate", minArgs: 3, maxArgs: 3, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, _ := argString(args, 0)
		from, _ := argString(args, 1)
		to, _ := argString(args, 2)
		fromR, toR := []rune(from), []rune(to)
		var sb strings.Builder
		for _, r := range s {
			idx := -1
			for i, fr := range fromR {
				if fr == r {
					idx = i
					break
				}
			}
			if idx < 0 {
				sb.WriteRune(r)
			} else if idx < len(toR) {
				sb.WriteRune(toR[idx])
			}
		}
		return singleton(xdm.NewString(sb.String())), nil
	}})
	reg(&function{name: "matches", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, _ := argString(args, 0)
		pat, _ := argString(args, 1)
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, dynErr("FORX0002", "invalid regular expression %q", pat)
		}
		return singleton(xdm.NewBool(re.MatchString(s))), nil
	}})
	reg(&function{name: "replace", minArgs: 3, maxArgs: 3, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, _ := argString(args, 0)
		pat, _ := argString(args, 1)
		repl, _ := argString(args, 2)
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, dynErr("FORX0002", "invalid regular expression %q", pat)
		}
		return singleton(xdm.NewString(re.ReplaceAllString(s, repl))), nil
	}})
	reg(&function{name: "tokenize", minArgs: 2, maxArgs: 2, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, _ := argString(args, 0)
		pat, _ := argString(args, 1)
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, dynErr("FORX0002", "invalid regular expression %q", pat)
		}
		var out xdm.Sequence
		for _, part := range re.Split(s, -1) {
			out = append(out, xdm.NewString(part))
		}
		return out, nil
	}})

	// --- nodes ---
	reg(&function{name: "name", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		n, ok, err := ctxOrArgNode(ctx, args)
		if err != nil {
			return nil, err
		}
		if !ok {
			return singleton(xdm.NewString("")), nil
		}
		return singleton(xdm.NewString(n.Name.String())), nil
	}})
	reg(&function{name: "local-name", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		n, ok, err := ctxOrArgNode(ctx, args)
		if err != nil {
			return nil, err
		}
		if !ok {
			return singleton(xdm.NewString("")), nil
		}
		return singleton(xdm.NewString(n.Name.Local)), nil
	}})
	reg(&function{name: "namespace-uri", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		n, ok, err := ctxOrArgNode(ctx, args)
		if err != nil {
			return nil, err
		}
		if !ok {
			return singleton(xdm.NewString("")), nil
		}
		return singleton(xdm.NewString(n.Name.Space)), nil
	}})
	reg(&function{name: "root", minArgs: 0, maxArgs: 1, needsCtx: true, call: func(_ *evaluator, ctx *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		n, ok, err := ctxOrArgNode(ctx, args)
		if err != nil {
			return nil, err
		}
		if !ok {
			return xdm.EmptySequence, nil
		}
		return xdm.Singleton(xdm.Node{N: n.Document()}), nil
	}})
	reg(&function{name: "data", minArgs: 1, maxArgs: 1, call: func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		vals := xdm.AtomizeSeq(args[0])
		out := make(xdm.Sequence, len(vals))
		for i, v := range vals {
			out[i] = v
		}
		return out, nil
	}})

	// --- dateTime ---
	reg(&function{name: "current-dateTime", minArgs: 0, maxArgs: 0, call: func(ev *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.NewDateTime(ev.rt.Now())), nil
	}})

	// --- master data ---
	reg(&function{name: "collection", minArgs: 1, maxArgs: 1, call: func(ev *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		name, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		docs, err := ev.rt.Collection(name)
		if err != nil {
			return nil, err
		}
		return xdm.NodeSeq(docs), nil
	}})

	// --- qs: queue system library (Sec. 3.4/3.5) ---
	reg(&function{name: "qs:message", minArgs: 0, maxArgs: 0, call: func(ev *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		doc, err := ev.rt.Message()
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Node{N: doc}), nil
	}})
	reg(&function{name: "qs:queue", minArgs: 0, maxArgs: 1, docs: true, call: func(ev *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		name := ""
		if len(args) == 1 {
			var err error
			name, err = argString(args, 0)
			if err != nil {
				return nil, err
			}
		}
		docs, err := ev.rt.Queue(name)
		if err != nil {
			return nil, err
		}
		return xdm.NodeSeq(docs), nil
	}})
	reg(&function{name: "qs:property", minArgs: 1, maxArgs: 1, call: func(ev *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		name, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		v, err := ev.rt.Property(name)
		if err != nil {
			return nil, err
		}
		return singleton(v), nil
	}})
	reg(&function{name: "qs:slice", minArgs: 0, maxArgs: 0, slice: true, docs: true, call: func(ev *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		docs, err := ev.rt.Slice()
		if err != nil {
			return nil, err
		}
		return xdm.NodeSeq(docs), nil
	}})
	reg(&function{name: "qs:slicekey", minArgs: 0, maxArgs: 0, slice: true, call: func(ev *evaluator, _ *evalCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
		v, err := ev.rt.SliceKey()
		if err != nil {
			return nil, err
		}
		return singleton(v), nil
	}})
}

func numArg(args []xdm.Sequence, i int) (float64, error) {
	if len(args[i]) != 1 {
		return 0, dynErr("XPTY0004", "expected a single numeric argument")
	}
	return xdm.Atomize(args[i][0]).Number(), nil
}

func mathFunc(f func(float64) float64) func(*evaluator, *evalCtx, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return xdm.EmptySequence, nil
		}
		v := xdm.Atomize(args[0][0])
		if v.T == xdm.TypeInteger {
			return singleton(xdm.NewInteger(int64(f(float64(v.I))))), nil
		}
		return singleton(xdm.NewDouble(f(v.Number()))), nil
	}
}

func strPredFunc(f func(string, string) bool) func(*evaluator, *evalCtx, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		a, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		b, err := argString(args, 1)
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewBool(f(a, b))), nil
	}
}

func strMapFunc(f func(string) string) func(*evaluator, *evalCtx, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(xdm.NewString(f(s))), nil
	}
}

func aggFunc(kind string) func(*evaluator, *evalCtx, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ *evaluator, _ *evalCtx, args []xdm.Sequence) (xdm.Sequence, error) {
		vals := xdm.AtomizeSeq(args[0])
		if len(vals) == 0 {
			if kind == "sum" {
				return singleton(xdm.NewInteger(0)), nil
			}
			return xdm.EmptySequence, nil
		}
		// Untyped values are cast to xs:double for aggregation (F&O 15.4).
		for i, v := range vals {
			if v.T == xdm.TypeUntyped {
				vals[i] = xdm.NewDouble(v.Number())
			}
		}
		allInt := true
		for _, v := range vals {
			if v.T != xdm.TypeInteger {
				allInt = false
				break
			}
		}
		switch kind {
		case "sum", "avg":
			var fsum float64
			var isum int64
			for _, v := range vals {
				if allInt {
					isum += v.I
				} else {
					fsum += v.Number()
				}
			}
			if kind == "sum" {
				if allInt {
					return singleton(xdm.NewInteger(isum)), nil
				}
				return singleton(xdm.NewDouble(fsum)), nil
			}
			if allInt {
				fsum = float64(isum)
			}
			return singleton(xdm.NewDouble(fsum / float64(len(vals)))), nil
		case "min", "max":
			op := xdm.OpLt
			if kind == "max" {
				op = xdm.OpGt
			}
			best := vals[0]
			for _, v := range vals[1:] {
				better, err := xdm.CompareValues(op, v, best)
				if err != nil {
					return nil, err
				}
				if better {
					best = v
				}
			}
			return singleton(best), nil
		}
		return nil, dynErr("XQST0000", "unknown aggregate %s", kind)
	}
}
