// Section encoding: the flat, CRC-trailed byte layer shared by BTNS's
// sibling formats — today the shard spill files (internal/spill), whose
// sections are fixed-width little-endian scalars and length-prefixed flat
// arrays rather than BTNS's delta-coded coordinate stream. A SectionWriter
// appends typed fields to one contiguous buffer and Finish seals it with
// the same IEEE CRC-32 trailer BTNS uses; NewSectionReader verifies and
// strips that trailer before any field is parsed, so a truncated or
// bit-flipped file fails loudly at open, never as a misparsed field.
package tnsbin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Section-stream errors, surfaced by NewSectionReader and the typed reads.
var (
	// ErrSectionTruncated reports a stream shorter than its declared
	// contents (including one too short to carry the CRC trailer).
	ErrSectionTruncated = errors.New("tnsbin: section stream truncated")
	// ErrSectionChecksum reports a CRC-32 trailer mismatch.
	ErrSectionChecksum = errors.New("tnsbin: section checksum mismatch")
)

// SectionWriter accumulates typed fields into one flat buffer. The zero
// value is ready to use; call Finish to seal the stream with its CRC
// trailer (or Bytes to embed the raw fields inside another stream).
type SectionWriter struct {
	buf []byte
}

// U8 appends one byte.
func (w *SectionWriter) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (w *SectionWriter) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a fixed-width little-endian uint64.
func (w *SectionWriter) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a varint-coded uint64.
func (w *SectionWriter) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Raw appends b verbatim (a nested stream or opaque payload).
func (w *SectionWriter) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U64s appends a length-prefixed (uvarint) array of fixed-width uint64s.
func (w *SectionWriter) U64s(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// U32s appends a length-prefixed array of fixed-width uint32s.
func (w *SectionWriter) U32s(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.U32(v)
	}
}

// F64s appends a length-prefixed array of raw IEEE-754 float64 bits.
func (w *SectionWriter) F64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.U64(math.Float64bits(v))
	}
}

// Len reports the bytes accumulated so far (CRC trailer excluded).
func (w *SectionWriter) Len() int { return len(w.buf) }

// Bytes returns the accumulated fields without a CRC trailer, for
// embedding inside an enclosing stream that carries its own.
func (w *SectionWriter) Bytes() []byte { return w.buf }

// Finish seals the stream: the IEEE CRC-32 of every byte appended so far
// is written as a 4-byte little-endian trailer and the whole buffer is
// returned. The writer must not be reused afterwards.
func (w *SectionWriter) Finish() []byte {
	crc := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	return w.buf
}

// SectionReader parses a sealed section stream. Errors are sticky: the
// first failed read poisons the reader and every later read returns the
// zero value, so decode loops can run unconditionally and check Err once.
type SectionReader struct {
	buf []byte
	pos int
	err error
}

// NewSectionReader verifies data's CRC-32 trailer and returns a reader
// positioned at the first field. ErrSectionTruncated reports a stream too
// short to carry the trailer; ErrSectionChecksum a trailer mismatch.
func NewSectionReader(data []byte) (*SectionReader, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, need at least the 4-byte CRC trailer", ErrSectionTruncated, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: trailer %08x, computed %08x", ErrSectionChecksum, got, want)
	}
	return &SectionReader{buf: body}, nil
}

// fail records the first error and poisons all later reads.
func (r *SectionReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrSectionTruncated, what, r.pos, len(r.buf))
	}
}

// take returns the next n bytes, or nil after recording a truncation.
func (r *SectionReader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.buf)-r.pos < n {
		r.fail(what)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *SectionReader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (r *SectionReader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (r *SectionReader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a varint-coded uint64.
func (r *SectionReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

// arrayLen reads a length prefix, bounding it by the bytes remaining at
// the given element width so a corrupt length cannot drive a huge
// allocation before the truncation is noticed.
func (r *SectionReader) arrayLen(elemBytes int, what string) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.pos)/uint64(elemBytes) {
		r.fail(what)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed array of fixed-width uint64s into a slice
// drawn by alloc (so callers can supply pooled storage); alloc receives
// the element count and must return a slice of at least that length.
func (r *SectionReader) U64s(alloc func(n int) []uint64) []uint64 {
	n := r.arrayLen(8, "u64 array")
	if r.err != nil {
		return nil
	}
	out := alloc(n)[:n]
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// U32s is U64s for uint32 elements.
func (r *SectionReader) U32s(alloc func(n int) []uint32) []uint32 {
	n := r.arrayLen(4, "u32 array")
	if r.err != nil {
		return nil
	}
	out := alloc(n)[:n]
	for i := range out {
		out[i] = r.U32()
	}
	return out
}

// F64s is U64s for raw IEEE-754 float64 elements.
func (r *SectionReader) F64s(alloc func(n int) []float64) []float64 {
	n := r.arrayLen(8, "f64 array")
	if r.err != nil {
		return nil
	}
	out := alloc(n)[:n]
	for i := range out {
		out[i] = math.Float64frombits(r.U64())
	}
	return out
}

// Remaining reports the unread bytes (CRC trailer excluded).
func (r *SectionReader) Remaining() int { return len(r.buf) - r.pos }

// Rest returns every unread byte and advances to the end.
func (r *SectionReader) Rest() []byte {
	b := r.buf[r.pos:]
	r.pos = len(r.buf)
	return b
}

// Err reports the sticky decode error, nil on a clean parse so far.
func (r *SectionReader) Err() error { return r.err }
