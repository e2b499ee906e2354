// Package tnsbin implements a compact binary sparse-tensor format ("BTNS")
// for benchmark I/O and the daemon's uploads and results. The text .tns
// format is convenient but costs ~20 bytes per coordinate; paper-scale
// tensors (26M nonzeros for vast) parse slowly and bloat on disk. BTNS
// stores elements sorted by linearized coordinate with varint delta-encoded
// keys and raw little-endian values, typically 3-6× smaller than .tns.
// Both directions are single passes over one byte slice. Write linearizes
// and sorts a COO tensor; EncodeKeys takes elements already as ascending
// key and value columns, as the daemon's results arrive, and both hand them
// to one encoder. On a 2-vCPU Xeon
// (go1.24.0) Write takes about 60 ns per element on unsorted input and
// 20 ns on sorted input, and Read 26-35 ns (BenchmarkWriteBTNS and
// BenchmarkReadBTNS, on the daemon benchmark's caffeine tensors).
//
// Layout (all multi-byte integers little-endian or uvarint):
//
//	magic   "BTNS"                  4 bytes
//	version uvarint                 (currently 1)
//	order   uvarint
//	dims    order × uvarint
//	nnz     uvarint
//	keys    nnz × uvarint           delta of linearized coordinate (+1 for
//	                                the first, so duplicates are invalid)
//	vals    nnz × float64           raw IEEE-754 bits
//	crc     uint32                  IEEE CRC-32 of everything above
//
// The format requires the tensor's full index space to linearize into a
// uint64 (true for every benchmark in the paper); Write returns an error
// otherwise and callers fall back to .tns. Read rejects a declared nnz
// larger than the bytes after it can hold (each element takes at least one
// key byte and eight value bytes), so a short body cannot make it allocate,
// and it rejects NaN values, which Tensor.Validate forbids.
package tnsbin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"fastcc/internal/coo"
	"fastcc/internal/radix"
)

var magic = [4]byte{'B', 'T', 'N', 'S'}

const version = 1

// minElemBytes is the fewest payload bytes one element takes: a one-byte
// key delta and an eight-byte value.
const minElemBytes = 1 + 8

// Write encodes the tensor canonically: elements in linearized-coordinate
// order, duplicate coordinates summed in input order, which are the sums
// Dedup computes. t is not modified.
func Write(w io.Writer, t *coo.Tensor) error {
	modes := make([]int, t.Order())
	for m := range modes {
		modes[m] = m
	}
	keys, err := t.LinearizeModes(modes)
	if err != nil {
		return fmt.Errorf("tnsbin: %w", err)
	}
	n := len(keys)
	if n > 1<<32 {
		// The radix permutation is uint32; Sort falls back to a
		// comparison sort at this size.
		c := t.Clone()
		c.Sort()
		return Write(w, c)
	}
	// perm[p] is the element at sorted position p; nil when keys are
	// already in order.
	var perm []uint32
	if !slices.IsSorted(keys) {
		perm = make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		// Stable, so duplicates keep input order. One worker: in the
		// daemon the codec runs beside other requests' contractions.
		radix.SortWithPerm(keys, perm, 1)
	}
	_, err = w.Write(encode(t.Dims, keys, t.Vals, perm))
	return err
}

// EncodeKeys returns the BTNS encoding of the tensor with extents dims
// whose elements are given as key and value columns: keys[i] is element
// i's linearized coordinate (mode 0 most significant, as Write linearizes)
// and vals[i] its value. Keys must ascend strictly and lie inside the index
// space; EncodeKeys rejects them otherwise. For a tensor with distinct
// coordinates it returns the bytes Write writes.
func EncodeKeys(dims, keys []uint64, vals []float64) ([]byte, error) {
	size, err := coo.LinearSize(dims)
	if err != nil {
		return nil, fmt.Errorf("tnsbin: %w", err)
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("tnsbin: %d keys for %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("tnsbin: key %d at element %d does not ascend past %d", keys[i], i, keys[i-1])
		}
	}
	if n := len(keys); n > 0 && keys[n-1] >= size {
		return nil, fmt.Errorf("tnsbin: key %d beyond index space %d", keys[n-1], size)
	}
	return encode(dims, keys, vals, nil), nil
}

// encode returns the BTNS stream of a tensor with extents dims whose
// elements, in ascending key order, are keys[p] with value vals[perm[p]]
// (vals[p] when perm is nil). Equal keys are one element: their values
// are summed in order.
func encode(dims, keys []uint64, vals []float64, perm []uint32) []byte {
	val := func(p int) float64 {
		if perm == nil {
			return vals[p]
		}
		return vals[perm[p]]
	}

	// Size the buffer exactly: one varint per distinct key, eight bytes per
	// value.
	distinct, keyBytes := 0, 0
	for i, k := range keys {
		if i == 0 {
			keyBytes += uvarintLen(k + 1)
		} else if k != keys[i-1] {
			keyBytes += uvarintLen(k - keys[i-1])
		} else {
			continue
		}
		distinct++
	}
	size := len(magic) + uvarintLen(version) + uvarintLen(uint64(len(dims)))
	for _, d := range dims {
		size += uvarintLen(d)
	}
	size += uvarintLen(uint64(distinct)) + keyBytes + 8*distinct + crc32.Size

	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(dims)))
	for _, d := range dims {
		buf = binary.AppendUvarint(buf, d)
	}
	buf = binary.AppendUvarint(buf, uint64(distinct))
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendUvarint(buf, k+1)
		} else if k != keys[i-1] {
			buf = binary.AppendUvarint(buf, k-keys[i-1])
		}
	}
	n := len(keys)
	for i := 0; i < n; {
		v := val(i)
		j := i + 1
		for ; j < n && keys[j] == keys[i]; j++ {
			v += val(j)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		i = j
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Read decodes a BTNS stream. The stream is buffered in memory (tensors
// are in-memory objects anyway) so the checksum covers exactly the bytes
// parsed.
func Read(r io.Reader) (*coo.Tensor, error) {
	// bytes.Buffer grows by doubling, about three times the body in all;
	// io.ReadAll grows in 1.25× steps, about five times.
	var in bytes.Buffer
	if _, err := in.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("tnsbin: %w", err)
	}
	data := in.Bytes()
	if len(data) < len(magic)+crc32.Size {
		return nil, fmt.Errorf("tnsbin: truncated stream (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-crc32.Size], data[len(data)-crc32.Size:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("tnsbin: checksum mismatch (file %08x, computed %08x)", got, want)
	}
	if m := [4]byte(body[:4]); m != magic {
		return nil, fmt.Errorf("tnsbin: bad magic %q", m[:])
	}
	p := body[len(magic):]
	uvarint := func(what string) (uint64, error) {
		v, k := binary.Uvarint(p)
		if k <= 0 {
			return 0, fmt.Errorf("tnsbin: %s: truncated or overlong varint", what)
		}
		p = p[k:]
		return v, nil
	}

	ver, err := uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("tnsbin: unsupported version %d", ver)
	}
	order, err := uvarint("order")
	if err != nil {
		return nil, err
	}
	if order == 0 || order > 64 {
		return nil, fmt.Errorf("tnsbin: implausible order %d", order)
	}
	dims := make([]uint64, order)
	for i := range dims {
		if dims[i], err = uvarint("dims"); err != nil {
			return nil, err
		}
		if dims[i] == 0 {
			return nil, fmt.Errorf("tnsbin: zero extent at mode %d", i)
		}
	}
	size, err := coo.LinearSize(dims)
	if err != nil {
		return nil, fmt.Errorf("tnsbin: %w", err)
	}
	nnz64, err := uvarint("nnz")
	if err != nil {
		return nil, err
	}
	if nnz64 > size {
		return nil, fmt.Errorf("tnsbin: nnz %d exceeds index space %d", nnz64, size)
	}
	if nnz64 > uint64(len(p)/minElemBytes) {
		return nil, fmt.Errorf("tnsbin: nnz %d does not fit in the %d bytes left", nnz64, len(p))
	}
	nnz := int(nnz64)

	t := coo.Alloc(dims, nnz)
	// Keys decode into the mode-0 column, which Split then divides in place.
	keys := t.Coords[0]
	next := uint64(0) // one past the previous key
	for i := range keys {
		var delta uint64
		if len(p) > 0 && p[0] < 0x80 {
			delta, p = uint64(p[0]), p[1:]
		} else {
			v, k := binary.Uvarint(p)
			if k <= 0 {
				return nil, fmt.Errorf("tnsbin: key %d: truncated or overlong varint", i)
			}
			delta, p = v, p[k:]
		}
		if delta == 0 {
			return nil, fmt.Errorf("tnsbin: zero key delta at element %d", i)
		}
		if delta-1 >= size-next {
			return nil, fmt.Errorf("tnsbin: key beyond index space %d at element %d", size, i)
		}
		keys[i] = next + delta - 1
		next = keys[i] + 1
	}
	if len(p) < 8*nnz {
		return nil, fmt.Errorf("tnsbin: %d value bytes for %d values", len(p), nnz)
	}
	for i := range t.Vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		if math.IsNaN(v) {
			return nil, fmt.Errorf("tnsbin: value %d is NaN", i)
		}
		t.Vals[i], p = v, p[8:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("tnsbin: %d trailing bytes after payload", len(p))
	}
	split, err := coo.NewSplitter(dims)
	if err != nil {
		return nil, fmt.Errorf("tnsbin: %w", err)
	}
	split.Split(t.Coords, 0, keys)
	return t, nil
}
