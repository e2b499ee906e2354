package tnsbin

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fastcc/internal/coo"
)

func randomTensor(rng *rand.Rand, dims []uint64, nnz int) *coo.Tensor {
	t := coo.New(dims, nnz)
	coords := make([]uint64, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			coords[m] = rng.Uint64() % d
		}
		t.Append(coords, rng.NormFloat64())
	}
	return t
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomTensor(rng, []uint64{40, 7, 19}, 500)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Clone()
	want.Dedup()
	if !coo.Equal(want, b) {
		t.Fatal("round trip mismatch")
	}
	if !b.IsSorted() {
		t.Fatal("BTNS must decode sorted")
	}
}

func TestRoundTripEmptyAndScalarish(t *testing.T) {
	empty := coo.New([]uint64{5, 5}, 0)
	var buf bytes.Buffer
	if err := Write(&buf, empty); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Order() != 2 {
		t.Fatalf("empty round trip: %v", got)
	}
	// First key at coordinate zero (delta encoding edge).
	one := coo.New([]uint64{3}, 1)
	one.Append([]uint64{0}, -2.5)
	buf.Reset()
	if err := Write(&buf, one); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At([]uint64{0}) != -2.5 {
		t.Fatal("zero-coordinate element lost")
	}
}

func TestWriteRejectsHugeIndexSpace(t *testing.T) {
	huge := coo.New([]uint64{1 << 40, 1 << 40}, 0)
	if err := Write(&bytes.Buffer{}, huge); err == nil {
		t.Fatal("overflowing dims accepted")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomTensor(rng, []uint64{20, 20}, 50)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted payload: err=%v", err)
	}
	// Truncate: must error, not panic.
	for _, cut := range []int{0, 3, 7, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 'X'
	if _, err := Read(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFormatIsCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomTensor(rng, []uint64{500, 400, 30}, 5000)
	a.Dedup()
	var bin, txt bytes.Buffer
	if err := Write(&bin, a); err != nil {
		t.Fatal(err)
	}
	if err := coo.WriteTNS(&txt, a); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("BTNS (%d B) not smaller than .tns (%d B)", bin.Len(), txt.Len())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 1
		dims := make([]uint64, order)
		for m := range dims {
			dims[m] = uint64(rng.Intn(12) + 1)
		}
		a := randomTensor(rng, dims, rng.Intn(80))
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			return false
		}
		b, err := Read(&buf)
		if err != nil {
			return false
		}
		want := a.Clone()
		want.Dedup()
		return coo.Equal(want, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceWrite is the encoder Write replaced: canonicalize a clone with
// Dedup, linearize it again and emit field by field through a
// bufio.Writer. Write must put exactly its bytes on the wire.
func referenceWrite(w io.Writer, t *coo.Tensor) error {
	if _, err := coo.LinearSize(t.Dims); err != nil {
		return fmt.Errorf("tnsbin: %w", err)
	}
	c := t.Clone()
	c.Dedup()
	modes := make([]int, c.Order())
	for m := range modes {
		modes[m] = m
	}
	keys, err := c.LinearizeModes(modes)
	if err != nil {
		return fmt.Errorf("tnsbin: %w", err)
	}
	crc := crc32.NewIEEE()
	// A bufio.Writer keeps its first error and Flush returns it.
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	bw.Write(magic[:])
	putUvarint(version)
	putUvarint(uint64(c.Order()))
	for _, d := range c.Dims {
		putUvarint(d)
	}
	putUvarint(uint64(c.NNZ()))
	prev := uint64(0)
	for i, k := range keys {
		delta := k + 1
		if i > 0 {
			delta = k - prev
			if delta == 0 {
				return fmt.Errorf("tnsbin: duplicate coordinate after dedup (key %d)", k)
			}
		}
		putUvarint(delta)
		prev = k
	}
	for _, v := range c.Vals {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		bw.Write(buf[:8])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	_, err = w.Write(buf[:4])
	return err
}

func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sorted := randomTensor(rng, []uint64{40, 7, 19}, 500)
	sorted.Dedup()
	sortedDups := randomTensor(rng, []uint64{6, 5}, 200) // ~7 per coordinate
	sortedDups.Sort()
	negZero := coo.New([]uint64{4, 4}, 3)
	negZero.Append([]uint64{3, 1}, math.Copysign(0, -1))
	negZero.Append([]uint64{0, 2}, 1.5)
	negZero.Append([]uint64{3, 1}, math.Copysign(0, -1))
	firstZero := coo.New([]uint64{9, 9}, 2)
	firstZero.Append([]uint64{4, 4}, 1)
	firstZero.Append([]uint64{0, 0}, 2)
	cases := map[string]*coo.Tensor{
		"unsorted":           randomTensor(rng, []uint64{40, 7, 19}, 500),
		"sorted":             sorted,
		"duplicates":         randomTensor(rng, []uint64{6, 5}, 200),
		"sorted duplicates":  sortedDups,
		"negative zero sums": negZero,
		"empty":              coo.New([]uint64{5, 5}, 0),
		"order 1":            randomTensor(rng, []uint64{1000}, 300),
		"order 4":            randomTensor(rng, []uint64{13, 2, 31, 7}, 900),
		"first key 0":        firstZero,
		"multi-byte deltas":  randomTensor(rng, []uint64{1 << 20, 1 << 20, 1 << 20}, 300),
		"single element":     randomTensor(rng, []uint64{3, 3}, 1),
		"all one coordinate": randomTensor(rng, []uint64{1, 1}, 50),
	}
	for name, x := range cases {
		before := x.Clone()
		var got, want bytes.Buffer
		if err := Write(&got, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := referenceWrite(&want, x); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write gives %d bytes, the reference %d; they differ", name, got.Len(), want.Len())
		}
		if !coo.Equal(before, x) || !equalOrder(before, x) {
			t.Errorf("%s: Write modified its input", name)
		}
	}
}

// equalOrder reports whether a and b hold the same elements in the same
// order, comparing value bits.
func equalOrder(a, b *coo.Tensor) bool {
	if a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
		for m := range a.Coords {
			if a.Coords[m][i] != b.Coords[m][i] {
				return false
			}
		}
	}
	return true
}

// seal appends body's CRC-32 trailer.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// overstatedCount is a 26-byte stream with a valid trailer that declares
// 2^36 elements of a 2^31 × 2^31 tensor and carries none of them.
func overstatedCount() []byte {
	body := append([]byte("BTNS"), version, 2)
	body = binary.AppendUvarint(body, 1<<31)
	body = binary.AppendUvarint(body, 1<<31)
	body = binary.AppendUvarint(body, 1<<36)
	return seal(body)
}

// nanValue is a one-element stream whose value is NaN.
func nanValue() []byte {
	body := append([]byte("BTNS"), version, 1, 3, 1, 1)
	return seal(binary.LittleEndian.AppendUint64(body, math.Float64bits(math.NaN())))
}

func TestReadRejectsCountBeyondPayload(t *testing.T) {
	data := overstatedCount()
	if len(data) != 26 {
		t.Fatalf("stream is %d bytes, want 26", len(data))
	}
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("overstated count: err=%v", err)
	}
}

func TestReadRejectsNaN(t *testing.T) {
	if _, err := Read(bytes.NewReader(nanValue())); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN value: err=%v", err)
	}
}

// FuzzRead decodes each input twice: as given, where almost any mutation
// fails the checksum, and with the trailer recomputed over the mutated
// body, which reaches the parser. Accepted input must pass Validate and
// survive Write then Read with its coordinates and value bits.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	a := randomTensor(rng, []uint64{9, 9}, 20)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(overstatedCount())
	f.Add(nanValue())
	f.Add([]byte("BTNS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAccepted(t, data)
		if len(data) >= crc32.Size {
			checkAccepted(t, seal(append([]byte(nil), data[:len(data)-crc32.Size]...)))
		}
	})
}

func checkAccepted(t *testing.T, data []byte) {
	t.Helper()
	tn, err := Read(bytes.NewReader(data)) // must never panic
	if err != nil {
		return
	}
	if verr := tn.Validate(); verr != nil {
		t.Fatalf("accepted invalid tensor: %v", verr)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tn); err != nil {
		t.Fatalf("re-encoding an accepted tensor: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("decoding a re-encoded tensor: %v", err)
	}
	if !equalOrder(tn, back) {
		t.Fatal("Write then Read changed an accepted tensor")
	}
}

// distinctColumns returns a random tensor with distinct coordinates and
// its key and value columns in ascending key order.
func distinctColumns(rng *rand.Rand, dims []uint64, nnz int) (*coo.Tensor, []uint64, []float64) {
	t := randomTensor(rng, dims, nnz)
	t.Dedup()
	keys, err := t.LinearizeModes([]int{0, 1, 2, 3}[:t.Order()])
	if err != nil {
		panic(err)
	}
	// Dedup leaves the elements sorted, so the keys ascend.
	return t, keys, append([]float64(nil), t.Vals...)
}

// TestEncodeKeysRejects requires EncodeKeys to refuse keys that repeat,
// descend or leave the index space, mismatched columns, and dims whose
// index space overflows a uint64.
func TestEncodeKeysRejects(t *testing.T) {
	cases := []struct {
		name string
		dims []uint64
		keys []uint64
		vals []float64
	}{
		{"repeated", []uint64{4, 5}, []uint64{1, 3, 3}, []float64{1, 2, 3}},
		{"descending", []uint64{4, 5}, []uint64{1, 7, 6}, []float64{1, 2, 3}},
		{"beyond index space", []uint64{4, 5}, []uint64{1, 20}, []float64{1, 2}},
		{"short value column", []uint64{4, 5}, []uint64{1, 2}, []float64{1}},
		{"overflowing dims", []uint64{1 << 40, 1 << 40}, nil, nil},
	}
	for _, c := range cases {
		if _, err := EncodeKeys(c.dims, c.keys, c.vals); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzEncodeKeys checks EncodeKeys against Write on random tensors with
// distinct coordinates: the bytes must be equal. The same columns with a
// key repeated, two keys swapped or the last key moved past the index
// space must be rejected.
func FuzzEncodeKeys(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(40))
	f.Add(int64(2), uint8(4), uint16(300))
	f.Add(int64(3), uint8(1), uint16(1))
	f.Add(int64(4), uint8(3), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, order uint8, nnz uint16) {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]uint64, 1+order%4)
		for m := range dims {
			dims[m] = 1 + rng.Uint64()%40
		}
		tn, keys, vals := distinctColumns(rng, dims, int(nnz%512))
		got, err := EncodeKeys(dims, keys, vals)
		if err != nil {
			t.Fatalf("dims %v, %d keys: %v", dims, len(keys), err)
		}
		var want bytes.Buffer
		if err := Write(&want, tn); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("dims %v, %d keys: EncodeKeys bytes differ from Write's", dims, len(keys))
		}
		size, _ := coo.LinearSize(dims)
		n := len(keys)
		var bad [][]uint64
		if n >= 2 {
			i := 1 + rng.Intn(n-1)
			rep := append([]uint64(nil), keys...)
			rep[i] = rep[i-1]
			swp := append([]uint64(nil), keys...)
			swp[i], swp[i-1] = swp[i-1], swp[i]
			bad = append(bad, rep, swp)
		}
		if n >= 1 {
			out := append([]uint64(nil), keys...)
			out[n-1] = size + rng.Uint64()%8
			bad = append(bad, out)
		}
		for k, b := range bad {
			if _, err := EncodeKeys(dims, b, vals); err == nil {
				t.Fatalf("dims %v: bad column %d accepted", dims, k)
			}
		}
	})
}
