// Package store implements the storage engine beneath the Demaq message
// store: a page-based data file with slotted pages, a buffer manager, a
// write-ahead log with ARIES-style recovery, record heaps with overflow
// chains for large XML messages, and an in-memory B+tree used for derived
// indexes (materialized slices, scheduler state) that are rebuilt from the
// logged base data on startup. Open reads each data page once for it: one
// sequential pass rebuilds the heap tails and the free list, and the
// message store's Scan of each heap, which refills the derived indexes,
// reads the chain pages outside the buffer pool's frames.
//
// It plays the role Natix plays in the paper (Sec. 4.1): a recoverable
// store with queue extensions. Demaq queues are append-only, which this
// engine exploits: record inserts log only redo/undo images of the new
// record, there are no in-place payload updates, and retention-driven
// deletions are logged as redo-only batches (the paper's observation that
// message deletion "can be reached without analyzing the log").
package store

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in the data file.
const PageSize = 8192

// PageID identifies a page by its index in the data file.
type PageID uint32

// InvalidPage is the nil page pointer.
const InvalidPage PageID = 0xFFFFFFFF

// RID is a record identifier: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// NilRID is the invalid record reference.
var NilRID = RID{Page: InvalidPage}

// Slotted page layout (all integers little-endian):
//
//	offset  size  field
//	0       8     pageLSN
//	8       4     nextPage (chain pointer; InvalidPage if none)
//	12      4     prevPage
//	16      2     slot count
//	18      2     free space start (grows up)
//	20      2     free space end (grows down; cells above it)
//	22      2     flags
//	24      ...   slot array: per slot 2 bytes offset + 2 bytes length
//	...     ...   free space
//	...     ...   cells (records), packed at the end
//
// A slot with offset 0xFFFF is dead (deleted). Length 0 is a valid empty
// record.
const (
	pageHeaderSize = 24
	slotSize       = 4
	deadOffset     = 0xFFFF
)

// Page flags.
const (
	flagOverflow uint16 = 1 << iota // page holds one overflow fragment
)

// page wraps a PageSize byte buffer with typed accessors.
type page struct {
	id  PageID
	buf []byte
}

func (p *page) lsn() uint64       { return binary.LittleEndian.Uint64(p.buf[0:]) }
func (p *page) setLSN(l uint64)   { binary.LittleEndian.PutUint64(p.buf[0:], l) }
func (p *page) next() PageID      { return PageID(binary.LittleEndian.Uint32(p.buf[8:])) }
func (p *page) setNext(n PageID)  { binary.LittleEndian.PutUint32(p.buf[8:], uint32(n)) }
func (p *page) prev() PageID      { return PageID(binary.LittleEndian.Uint32(p.buf[12:])) }
func (p *page) setPrev(n PageID)  { binary.LittleEndian.PutUint32(p.buf[12:], uint32(n)) }
func (p *page) slotCount() uint16 { return min(p.rawSlotCount(), maxSlots) }
func (p *page) rawSlotCount() uint16 {
	return binary.LittleEndian.Uint16(p.buf[16:])
}
func (p *page) setSlotCount(n uint16) {
	binary.LittleEndian.PutUint16(p.buf[16:], n)
}
func (p *page) freeStart() uint16 { return binary.LittleEndian.Uint16(p.buf[18:]) }
func (p *page) setFreeStart(n uint16) {
	binary.LittleEndian.PutUint16(p.buf[18:], n)
}
func (p *page) freeEnd() uint16 { return binary.LittleEndian.Uint16(p.buf[20:]) }
func (p *page) setFreeEnd(n uint16) {
	binary.LittleEndian.PutUint16(p.buf[20:], n)
}
func (p *page) flags() uint16     { return binary.LittleEndian.Uint16(p.buf[22:]) }
func (p *page) setFlags(f uint16) { binary.LittleEndian.PutUint16(p.buf[22:], f) }

// format initializes an empty slotted page.
func (p *page) format() {
	for i := range p.buf[:pageHeaderSize] {
		p.buf[i] = 0
	}
	p.setNext(InvalidPage)
	p.setPrev(InvalidPage)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
}

func (p *page) slotOffset(slot uint16) int { return pageHeaderSize + int(slot)*slotSize }

func (p *page) slot(slot uint16) (off uint16, length uint16) {
	so := p.slotOffset(slot)
	return binary.LittleEndian.Uint16(p.buf[so:]), binary.LittleEndian.Uint16(p.buf[so+2:])
}

func (p *page) setSlot(slot uint16, off, length uint16) {
	so := p.slotOffset(slot)
	binary.LittleEndian.PutUint16(p.buf[so:], off)
	binary.LittleEndian.PutUint16(p.buf[so+2:], length)
}

// freeSpace returns usable bytes for one new record including its slot.
func (p *page) freeSpace() int {
	return int(p.freeEnd()) - int(p.freeStart())
}

// maxRecordSize is the largest record storable in a fresh page.
const maxRecordSize = PageSize - pageHeaderSize - slotSize

// maxSlots is the most slots whose array fits in a page. slotCount clamps
// the stored count to it, so a corrupt count never indexes past the buffer;
// check reports it.
const maxSlots = (PageSize - pageHeaderSize) / slotSize

// check validates the slotted layout of a page read from disk: the slot
// array ends where free space starts, free space lies inside the page, and
// every live cell lies between the end of free space and the end of the
// page. Every page mutation keeps these, so a page that fails is corrupt.
// Open checks every heap page before it parses one.
func (p *page) check() error {
	arrEnd := p.slotOffset(p.rawSlotCount())
	if arrEnd > PageSize || int(p.freeStart()) != arrEnd {
		return fmt.Errorf("%d slots, free space starts at %d", p.rawSlotCount(), p.freeStart())
	}
	if p.freeEnd() < p.freeStart() || p.freeEnd() > PageSize {
		return fmt.Errorf("free space [%d, %d) outside the page", p.freeStart(), p.freeEnd())
	}
	for s := uint16(0); s < p.rawSlotCount(); s++ {
		off, n := p.slot(s)
		if off != deadOffset && (off < p.freeEnd() || int(off)+int(n) > PageSize) {
			return fmt.Errorf("slot %d cell [%d, %d) outside the cell area [%d, %d)", s, off, int(off)+int(n), p.freeEnd(), PageSize)
		}
	}
	return nil
}

// canFit reports whether a record of n bytes fits (considering slot reuse).
func (p *page) canFit(n int) bool {
	// A dead slot can be reused, saving the slot overhead.
	for s := uint16(0); s < p.slotCount(); s++ {
		if off, _ := p.slot(s); off == deadOffset {
			return p.freeSpace() >= n
		}
	}
	return p.freeSpace() >= n+slotSize
}

// insert places data in the page and returns the slot. The caller must have
// checked canFit.
func (p *page) insert(data []byte) uint16 {
	n := uint16(len(data))
	// Reuse a dead slot if any.
	slot := p.slotCount()
	for s := uint16(0); s < p.slotCount(); s++ {
		if off, _ := p.slot(s); off == deadOffset {
			slot = s
			break
		}
	}
	if p.freeSpace() < int(n)+slotSize && slot == p.slotCount() {
		panic("store: page.insert without space check")
	}
	if int(p.freeEnd())-int(n) < int(p.freeStart())+slotSize {
		p.compact()
	}
	off := p.freeEnd() - n
	copy(p.buf[off:], data)
	p.setFreeEnd(off)
	if slot == p.slotCount() {
		p.setSlotCount(slot + 1)
		p.setFreeStart(p.freeStart() + slotSize)
	}
	p.setSlot(slot, off, n)
	return slot
}

// insertAt places data in a specific slot, extending the slot array as
// needed; used by recovery redo to reproduce exact slot assignments.
func (p *page) insertAt(slot uint16, data []byte) {
	n := uint16(len(data))
	for p.slotCount() <= slot {
		s := p.slotCount()
		p.setSlotCount(s + 1)
		p.setFreeStart(p.freeStart() + slotSize)
		p.setSlot(s, deadOffset, 0)
	}
	if int(p.freeEnd())-int(n) < int(p.freeStart()) {
		p.compact()
	}
	off := p.freeEnd() - n
	copy(p.buf[off:], data)
	p.setFreeEnd(off)
	p.setSlot(slot, off, n)
}

// read returns the record bytes of a live slot (aliasing the page buffer).
// A slot or cell outside the page reads as no record.
func (p *page) read(slot uint16) ([]byte, bool) {
	if slot >= p.slotCount() {
		return nil, false
	}
	off, n := p.slot(slot)
	if off == deadOffset || int(off)+int(n) > PageSize {
		return nil, false
	}
	return p.buf[off : int(off)+int(n)], true
}

// del marks a slot dead. Space is reclaimed by compact on demand.
func (p *page) del(slot uint16) bool {
	if slot >= p.slotCount() {
		return false
	}
	off, _ := p.slot(slot)
	if off == deadOffset {
		return false
	}
	p.setSlot(slot, deadOffset, 0)
	return true
}

// liveCount returns the number of live records.
func (p *page) liveCount() int {
	n := 0
	for s := uint16(0); s < p.slotCount(); s++ {
		if off, _ := p.slot(s); off != deadOffset {
			n++
		}
	}
	return n
}

// compact repacks live cells to the end of the page, keeping slot numbers
// stable (RIDs must not move between pages).
func (p *page) compact() {
	type live struct {
		slot uint16
		data []byte
	}
	var lives []live
	for s := uint16(0); s < p.slotCount(); s++ {
		if data, ok := p.read(s); ok {
			cp := make([]byte, len(data))
			copy(cp, data)
			lives = append(lives, live{slot: s, data: cp})
		}
	}
	p.setFreeEnd(PageSize)
	for _, l := range lives {
		off := p.freeEnd() - uint16(len(l.data))
		copy(p.buf[off:], l.data)
		p.setFreeEnd(off)
		p.setSlot(l.slot, off, uint16(len(l.data)))
	}
}
