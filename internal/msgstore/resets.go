package msgstore

import (
	"encoding/binary"
	"fmt"

	"demaq/internal/store"
)

// Slice resets must survive restarts with the transaction that performed
// them: losing a reset would make already-dismissed messages visible in
// their slices again, changing application behavior (Sec. 2.3.2). Resets
// are therefore persisted as small event records (slicing, key, watermark)
// in a system heap, written inside the same page-store transaction as the
// triggering message's other effects, and deleted again (CollectPass) once
// the collector has removed every message they dismissed.

const resetsHeapName = "sys:resets"

// ResetEvent is one persisted slice reset. RID locates its record, for
// CollectPass.DeleteResets; it is the zero RID for an event that was never
// written.
type ResetEvent struct {
	Slicing   string
	Key       string
	Watermark MsgID
	RID       store.RID
}

func encodeReset(e ResetEvent) []byte {
	out := make([]byte, 0, 12+len(e.Slicing)+len(e.Key))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Slicing)))
	out = append(out, e.Slicing...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Key)))
	out = append(out, e.Key...)
	out = binary.LittleEndian.AppendUint64(out, uint64(e.Watermark))
	return out
}

func decodeReset(data []byte) (ResetEvent, error) {
	var e ResetEvent
	if len(data) < 4 {
		return e, fmt.Errorf("msgstore: short reset event")
	}
	sl := int(binary.LittleEndian.Uint16(data))
	off := 2
	if off+sl+2 > len(data) {
		return e, fmt.Errorf("msgstore: truncated reset event")
	}
	e.Slicing = string(data[off : off+sl])
	off += sl
	kl := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+kl+8 > len(data) {
		return e, fmt.Errorf("msgstore: truncated reset event")
	}
	e.Key = string(data[off : off+kl])
	off += kl
	e.Watermark = MsgID(binary.LittleEndian.Uint64(data[off:]))
	return e, nil
}

// RecordReset stages a persistent slice-reset event. The watermark is
// the current message-ID high-water mark, captured at commit time.
func (t *Txn) RecordReset(slicing, key string) {
	t.resets = append(t.resets, ResetEvent{Slicing: slicing, Key: key})
}

// ResetEvents replays all persisted reset events (startup). A record that
// does not decode is an error: skipping it would lose a reset.
func (ms *Store) ResetEvents() ([]ResetEvent, error) {
	var out []ResetEvent
	var decodeErr error
	err := ms.ps.Scan(ms.resetsHeap, func(rid store.RID, data []byte) bool {
		e, err := decodeReset(data)
		if err != nil {
			decodeErr = fmt.Errorf("%w (record %s of %s)", err, rid, resetsHeapName)
			return false
		}
		e.RID = rid
		out = append(out, e)
		return true
	})
	if err == nil {
		err = decodeErr
	}
	return out, err
}
