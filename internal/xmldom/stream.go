package xmldom

import (
	"encoding/binary"
	"sort"
	"sync"
)

// Streaming ingest: StreamEncode turns wire XML directly into the binary
// document encoding in a single pass. It is the second handler of the
// parser's walk (parser.go): dictionary slots, the pre-order node stream
// and child counts are produced from the walk's events, and no
// intermediate Node tree is ever built. Without a projection the output is
// byte-identical to EncodeAppend(Parse(wire)) (FuzzStreamParse pins this),
// so the rest of the system cannot tell the two ingest paths apart.
//
// With a projection, subtrees the target queue's rules cannot reference
// are not encoded at all. The walk still reads them, so a pruned subtree
// is validated exactly like a kept one, but the encoder only counts their
// nesting and emits a single opaque span carrying the raw wire bytes and
// the namespace bindings in scope, to be re-parsed only if the document is
// ever fully materialized (decode.go). The projected format:
//
//	[0]      version byte EncVersionProjected (0x02)
//	uvarint  projection fingerprint (Projection.Fingerprint)
//	uvarint  pruned-name count; that many uvarint-prefixed local names of
//	         elements inside spans, sorted, distinct (the dispatch index
//	         merges them into the document's element-name key set)
//	uvarint  span count
//	...      dictionary, node count and node stream exactly as v1, except
//	         that a child slot may hold a span entry:
//	           span marker byte 0x0F
//	           uvarint binding count; per binding uvarint-prefixed prefix
//	           and URI (the in-scope declarations outside the span)
//	           uvarint raw length, raw wire bytes of the whole element
//
// The node count covers materialized nodes only; an element's child count
// includes its span children, so a full decode can splice the re-parsed
// subtrees back into position.

// EncVersionProjected is the format version byte of projected encodings.
const EncVersionProjected byte = 0x02

// spanMarker introduces an opaque span in a child slot of the node stream.
// It must stay disjoint from the NodeKind byte values.
const spanMarker byte = 0x0F

// StreamEncode parses wire XML and appends its binary encoding to dst in
// one pass. With proj == nil the output is the v1 encoding, byte-identical
// to EncodeAppend of the parsed tree. With a projection the output is the
// v2 projected encoding described above. Parse errors are *ParseError,
// identical to what Parse reports for the same input.
func StreamEncode(dst []byte, wire []byte, proj *Projection) ([]byte, error) {
	e := streamEncPool.Get().(*streamEncoder)
	defer streamEncPool.Put(e)
	e.reset(wire, proj)
	err := e.p.document()
	e.p.src = nil // the pool must not keep the caller's input alive
	if err != nil {
		return nil, err
	}
	e.close()
	if proj != nil {
		dst = append(dst, EncVersionProjected)
		dst = binary.AppendUvarint(dst, proj.Fingerprint())
		names := e.prunedList[:0]
		for nm := range e.pruned {
			names = append(names, nm)
		}
		sort.Strings(names)
		e.prunedList = names
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, nm := range names {
			dst = appendStr(dst, nm)
		}
		dst = binary.AppendUvarint(dst, uint64(e.spanCount))
	} else {
		dst = append(dst, EncVersion)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.names)))
	for _, nm := range e.names {
		dst = appendStr(dst, nm.Space)
		dst = appendStr(dst, nm.Prefix)
		dst = appendStr(dst, nm.Local)
	}
	dst = binary.AppendUvarint(dst, e.count)
	dst = append(dst, e.stream...)
	return dst, nil
}

// seFrame is one open child list: the byte offset of its count slot, the
// number of children emitted so far, and the projection node its children
// are looked up in (nil keeps everything below).
type seFrame struct {
	slot int
	n    int
	proj *Projection
}

// streamEncoder is the walk's handler that emits the node stream. It owns
// the parser so that the parser's scratch is pooled with its own.
type streamEncoder struct {
	p       parser
	nameIdx map[Name]uint64
	names   []Name
	count   uint64 // materialized node count
	stream  []byte // node stream scratch, assembled after the header
	frames  []seFrame

	// skip counts the open elements of the span being read; the span's
	// bindings are captured when it starts and written when it ends.
	skip       int
	binds      []nsBinding
	spanCount  int
	pruned     map[string]struct{}
	prunedList []string
}

var streamEncPool = sync.Pool{New: func() any {
	return &streamEncoder{
		nameIdx: make(map[Name]uint64, 16),
		pruned:  make(map[string]struct{}, 8),
	}
}}

// reset readies the encoder for one document and emits its document node.
func (e *streamEncoder) reset(wire []byte, proj *Projection) {
	e.p = parser{src: wire, line: 1, col: 1, h: e, ns: e.p.ns[:0], attrs: e.p.attrs[:0], text: e.p.text[:0]}
	clear(e.nameIdx)
	e.names = e.names[:0]
	e.count = 1
	e.stream = append(e.stream[:0], byte(DocumentNode))
	e.frames = e.frames[:0]
	e.open(proj)
	e.skip = 0
	e.spanCount = 0
	clear(e.pruned)
}

func (e *streamEncoder) nameIndex(nm Name) uint64 {
	i, ok := e.nameIdx[nm]
	if !ok {
		i = uint64(len(e.names))
		e.nameIdx[nm] = i
		e.names = append(e.names, nm)
	}
	return i
}

func (e *streamEncoder) str(s string) {
	e.stream = binary.AppendUvarint(e.stream, uint64(len(s)))
	e.stream = append(e.stream, s...)
}

func (e *streamEncoder) data(b []byte) {
	e.stream = binary.AppendUvarint(e.stream, uint64(len(b)))
	e.stream = append(e.stream, b...)
}

// open reserves a one-byte child-count slot and pushes a frame for it.
func (e *streamEncoder) open(proj *Projection) {
	e.frames = append(e.frames, seFrame{slot: len(e.stream), proj: proj})
	e.stream = append(e.stream, 0)
}

// close pops the current frame and patches its count slot, splicing in
// extra varint bytes for counts that need more than one.
func (e *streamEncoder) close() {
	f := e.frames[len(e.frames)-1]
	e.frames = e.frames[:len(e.frames)-1]
	if f.n < 0x80 {
		e.stream[f.slot] = byte(f.n)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(tmp[:], uint64(f.n))
	e.stream = append(e.stream, tmp[1:ln]...)
	copy(e.stream[f.slot+ln:], e.stream[f.slot+1:])
	copy(e.stream[f.slot:], tmp[:ln])
}

// emit counts one more child in the innermost open list and emits its
// kind byte. Everything but a span also counts as a materialized node.
func (e *streamEncoder) emit(kind byte) {
	e.frames[len(e.frames)-1].n++
	if kind != spanMarker {
		e.count++
	}
	e.stream = append(e.stream, kind)
}

// start emits a kept element's start tag, or opens a span where the
// projection prunes it. The whole start tag is emitted before the walk
// descends, so the parser's attribute scratch is free again.
func (e *streamEncoder) start(name Name, attrs []attr, outer []nsBinding) {
	if e.skip > 0 {
		e.skip++
		e.pruned[name.Local] = struct{}{}
		return
	}
	var sub *Projection
	if t := e.frames[len(e.frames)-1].proj; t != nil {
		s, keep := t.Lookup(name.Local)
		if !keep {
			e.skip = 1
			e.pruned[name.Local] = struct{}{}
			e.spanBindings(outer)
			return
		}
		sub = s
	}
	e.emit(byte(ElementNode))
	e.stream = binary.AppendUvarint(e.stream, e.nameIndex(name))
	e.stream = binary.AppendUvarint(e.stream, uint64(len(attrs)))
	for _, a := range attrs {
		e.count++
		e.stream = binary.AppendUvarint(e.stream, e.nameIndex(a.name))
		e.str(a.value)
	}
	e.open(sub)
}

// spanBindings keeps the innermost declaration per prefix of the bindings
// outside a span; the list seeds the namespace stack when the span is
// re-parsed.
func (e *streamEncoder) spanBindings(outer []nsBinding) {
	binds := e.binds[:0]
	for i := len(outer) - 1; i >= 0; i-- {
		b := outer[i]
		dup := false
		for _, x := range binds {
			if x.prefix == b.prefix {
				dup = true
				break
			}
		}
		if !dup {
			binds = append(binds, b)
		}
	}
	e.binds = binds
}

// end closes a kept element, or, at the end of a span, emits the span
// from the element's raw bytes.
func (e *streamEncoder) end(raw []byte) {
	if e.skip == 0 {
		e.close()
		return
	}
	if e.skip--; e.skip > 0 {
		return
	}
	e.emit(spanMarker)
	e.spanCount++
	e.stream = binary.AppendUvarint(e.stream, uint64(len(e.binds)))
	for _, b := range e.binds {
		e.str(b.prefix)
		e.str(b.uri)
	}
	e.data(raw)
}

func (e *streamEncoder) text(data []byte) {
	if e.skip > 0 {
		return
	}
	e.emit(byte(TextNode))
	e.data(data)
}

func (e *streamEncoder) comment(data []byte) {
	if e.skip > 0 {
		return
	}
	e.emit(byte(CommentNode))
	e.data(data)
}

func (e *streamEncoder) pi(target string, data []byte) {
	if e.skip > 0 {
		return
	}
	e.emit(byte(ProcessingInstructionNode))
	e.stream = binary.AppendUvarint(e.stream, e.nameIndex(Name{Local: target}))
	e.data(data)
}
