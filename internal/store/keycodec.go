package store

import "encoding/binary"

// Composite index-key codec shared by the secondary indexes built on BTree:
// the slicing index (slicing, key) → MsgID in internal/slicing and the
// property index (property, value) → MsgID in internal/msgstore.
//
// Every string component is encoded length-prefixed — uvarint(len) followed
// by the raw bytes — and the row identifier is appended as a fixed 8-byte
// big-endian suffix:
//
//	key = enc(c1) ++ enc(c2) ++ ... ++ be64(id)
//
// Length prefixes make the encoding prefix-free across distinct component
// tuples: a complete uvarint ends in a byte with the high bit clear, so no
// component encoding is a proper prefix of another, and therefore
// AppendIndexKey(nil, c...) of one tuple is never a prefix of a key built
// from a different tuple. ScanPrefix over IndexKeyPrefix(c...) is exact even
// when components embed NUL or any other byte — the ambiguity the previous
// "\x00"-separated slicing keys had. Within one tuple the big-endian suffix
// sorts rows in ascending id order, so range scans over [lo, hi] ids are
// contiguous.

// AppendIndexKey appends the length-prefixed encoding of the components.
func AppendIndexKey[S ~string | ~[]byte](dst []byte, components ...S) []byte {
	for _, c := range components {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// IndexKeyPrefix builds the exact scan prefix covering every id stored under
// the component tuple.
func IndexKeyPrefix(components ...string) []byte {
	n := 8
	for _, c := range components {
		n += len(c) + 2
	}
	return AppendIndexKey(make([]byte, 0, n), components...)
}

// AppendIndexKeyID appends the fixed 8-byte big-endian id suffix.
func AppendIndexKeyID(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

// IndexKey builds the full key for one row: components then id.
func IndexKey(id uint64, components ...string) []byte {
	return AppendIndexKeyID(IndexKeyPrefix(components...), id)
}

// IndexKeyID extracts the trailing id of a full index key.
func IndexKeyID(key []byte) uint64 {
	return binary.BigEndian.Uint64(key[len(key)-8:])
}
