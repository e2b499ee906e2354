package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/ref"
	"fastcc/internal/spill"
	"fastcc/internal/tnsbin"
)

// bodyReader seals a spill body with its CRC trailer and opens it, as
// spill.Dir.Read hands a verified body to decodeSpill.
func bodyReader(body []byte) *tnsbin.SectionReader {
	var w tnsbin.SectionWriter
	w.Raw(body)
	r, err := tnsbin.NewSectionReader(w.Finish())
	if err != nil {
		panic(err) // a freshly sealed stream always verifies
	}
	return r
}

// oneTileImage encodes by hand the spill body of a one-tile shard of m,
// whose one non-empty tile is listed as tile index: nonzero k becomes the
// pair (Ext[k], Val[k]), filed alone under keys[k], in a slot index of
// mask+1 slots. keys must have m.NNZ() entries.
func oneTileImage(m *coo.Matrix, tile, index, mask uint64, keys []uint64) []byte {
	var w tnsbin.SectionWriter
	w.U64(tile)
	w.Uvarint(1) // tiles
	w.Uvarint(uint64(m.NNZ()))
	w.Uvarint(uint64(len(keys)))
	w.Uvarint(1) // one non-empty tile
	w.Uvarint(index)
	w.U64(mask)
	w.U64s(keys)
	w.Uvarint(uint64(m.NNZ()))
	for range keys {
		w.Uvarint(1)
	}
	for _, e := range m.Ext {
		w.U32(uint32(e))
	}
	for _, v := range m.Val {
		w.U64(math.Float64bits(v))
	}
	return w.Bytes()
}

// contractKeyedSelf contracts o with itself, which builds, reuses or
// adopts one shard of tile side tile, and returns the sorted output.
func contractKeyedSelf(t *testing.T, o *Operand, tile uint64) (*coo.Tensor, *Stats) {
	t.Helper()
	out, st, err := ContractOperands(o, o, Config{Threads: 2, TileL: tile, TileR: tile, Platform: tinyLLC})
	if err != nil {
		t.Fatal(err)
	}
	var ls, rs []uint64
	var vs []float64
	out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
	RecycleOutput(out)
	tn := ref.TriplesToMatrixTensor(ls, rs, vs, o.Mat.ExtDim, o.Mat.ExtDim)
	tn.Sort()
	return tn, st
}

// keepSpill opens dir as the process-wide keep-mode spill tier and turns
// the tier off again at cleanup.
func keepSpill(t *testing.T, dir string) {
	t.Helper()
	if err := ConfigureSpill(dir, 0, true); err != nil {
		t.Fatalf("ConfigureSpill(%q): %v", dir, err)
	}
	t.Cleanup(func() {
		if err := ConfigureSpill("", 0, false); err != nil {
			t.Errorf("disabling spill: %v", err)
		}
	})
}

// TestSpillRejectsMalformedIndex crafts one-tile images that the encoder
// never writes: eight keys in eight slots, which leaves no empty slot to
// end a probe for an absent key; a key filed twice, whose second run no
// probe would find; a slot index far larger than eight pairs need; a
// tile index of 2^64-1, which int conversion turns into -1; and a body
// cut inside its tile, shorter than its own counts. Each must fail to
// decode with spill.ErrBadHeader, and a keyed operand that finds one as
// an orphan must count the fault and rebuild the reference output.
func TestSpillRejectsMalformedIndex(t *testing.T) {
	const tile = 4
	m := &coo.Matrix{ExtDim: tile, CtrDim: 8}
	for k := range 8 {
		m.Ext = append(m.Ext, uint64(k%tile))
		m.Ctr = append(m.Ctr, uint64(k))
		m.Val = append(m.Val, float64(k+1))
	}
	want := referenceSorted(m, m)
	images := []struct {
		name string
		body []byte
	}{
		{"overfull", oneTileImage(m, tile, 0, 7, m.Ctr)},
		{"repeated", oneTileImage(m, tile, 0, 15, []uint64{0, 0, 2, 3, 4, 5, 6, 7})},
		{"oversized", oneTileImage(m, tile, 0, 1<<20-1, m.Ctr)},
		{"negative tile", oneTileImage(m, tile, ^uint64(0), 15, m.Ctr)},
		{"truncated", oneTileImage(m, tile, 0, 15, m.Ctr)[:40]},
	}
	for _, img := range images {
		t.Run(img.name, func(t *testing.T) {
			s := &Shard{Key: ShardKey{Tile: tile}}
			if err := s.decodeSpill(bodyReader(img.body), m); !errors.Is(err, spill.ErrBadHeader) {
				t.Fatalf("decode: %v, want %v", err, spill.ErrBadHeader)
			}

			// The same image as an orphan a previous process left behind.
			dir := t.TempDir()
			o := NewKeyedOperand(m, "malformed-"+img.name)
			defer o.Close()
			d, err := spill.Open(spill.OS{}, dir, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			h, err := d.Write(o.spillFile(ShardKey{Tile: tile}), 1, img.body)
			if err != nil {
				t.Fatal(err)
			}
			d.Release(h)
			keepSpill(t, dir)
			before := SpillFaults()
			got, st := contractKeyedSelf(t, o, tile)
			if st.ShardReused {
				t.Fatal("the operand adopted the malformed image")
			}
			if n := SpillFaults().BadHeader - before.BadHeader; n != 1 {
				t.Fatalf("BadHeader rose by %d, want 1", n)
			}
			if !coo.Equal(got, want) {
				t.Fatal("the rebuilt output differs from the reference")
			}
		})
	}
}

// TestSpillScavengesVersion1 leaves a version-1 image in a keep-mode
// directory, in the layout and under the name the version-1 code wrote: a
// representation byte (0, hash tables) ahead of the tile side, and a file
// name ending -t64-r0.fspl. Opening the directory must delete it as a
// scavenged leftover, and a keyed operand over the same content must then
// build its shard cold and give the reference output.
func TestSpillScavengesVersion1(t *testing.T) {
	const tile, key = 64, "v1-operand"
	m := randomMatrix(rand.New(rand.NewSource(828)), 200, 40, 1500)
	built := NewOperand(m)
	s, _ := built.Shard(ShardKey{Tile: tile}, 1)
	body := append([]byte{0}, encodeShard(s)...)
	s.Unpin()
	built.Close()

	var w tnsbin.SectionWriter
	w.U32(uint32('F') | uint32('S')<<8 | uint32('P')<<16 | uint32('L')<<24)
	w.U32(1) // envelope version
	w.U64(1) // generation stamp
	w.Raw(body)
	dir := t.TempDir()
	path := filepath.Join(dir, key+"-t64-r0"+spill.Ext)
	if err := os.WriteFile(path, w.Finish(), 0o644); err != nil {
		t.Fatal(err)
	}

	keepSpill(t, dir)
	if files, _, scavenged := SpillDirStats(); files != 0 || scavenged != 1 {
		t.Fatalf("after Open: %d files indexed, %d scavenged; want 0 and 1", files, scavenged)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the version-1 image survived the scavenge: %v", err)
	}
	o := NewKeyedOperand(m, key)
	defer o.Close()
	got, st := contractKeyedSelf(t, o, tile)
	if st.ShardReused || !st.Symmetric {
		t.Fatalf("ShardReused=%v Symmetric=%v, want a cold symmetric run", st.ShardReused, st.Symmetric)
	}
	if !coo.Equal(got, referenceSorted(m, m)) {
		t.Fatal("the cold output differs from the reference")
	}
}

// FuzzSpillBody feeds arbitrary bodies to the spill decoder, seeded with
// the images of a one-tile and a multi-tile shard of one operand; each
// body is decoded for both shard keys. A body the decoder rejects must fail
// with an error that wraps a spill sentinel. A body it accepts must give
// tables whose keys are distinct and within the load limit, each key found
// by LookupBatch at its own index and an absent key answered -1.
func FuzzSpillBody(f *testing.F) {
	// Small images keep the fuzzer's minimization of new inputs short.
	m := randomMatrix(rand.New(rand.NewSource(919)), 100, 30, 60)
	tiles := []uint64{128, 16} // one tile, seven tiles
	o := NewOperand(m)
	for _, tile := range tiles {
		s, _ := o.Shard(ShardKey{Tile: tile}, 1)
		f.Add(encodeShard(s))
		s.Unpin()
	}
	o.Close()
	sentinels := []error{spill.ErrMissing, spill.ErrTruncated, spill.ErrChecksum, spill.ErrStale, spill.ErrBadHeader}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tile := range tiles {
			s := &Shard{Key: ShardKey{Tile: tile}}
			if err := s.decodeSpill(bodyReader(body), m); err != nil {
				if !slices.ContainsFunc(sentinels, func(e error) bool { return errors.Is(err, e) }) {
					t.Fatalf("tile %d: %v wraps no spill sentinel", tile, err)
				}
				continue
			}
			for _, i := range s.nonEmpty {
				checkRestoredTable(t, s.sealed[i])
			}
			s.recycle()
		}
	})
}

// checkRestoredTable checks a decoded table's slot index: its keys are
// distinct and within the load limit, LookupBatch finds each at its own
// index, and it answers -1 for a key the table does not hold.
func checkRestoredTable(t *testing.T, tab *hashtable.Sealed) {
	t.Helper()
	keys := tab.Keys()
	if limit := hashtable.MaxKeys(int(tab.Mask() + 1)); len(keys) > limit {
		t.Fatalf("%d keys in %d slots, load limit %d", len(keys), tab.Mask()+1, limit)
	}
	held := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if held[k] {
			t.Fatalf("key %d repeats", k)
		}
		held[k] = true
	}
	out := make([]int32, len(keys))
	tab.LookupBatch(keys, out)
	for k, li := range out {
		if li != int32(k) {
			t.Fatalf("key %d at index %d found at %d", keys[k], k, li)
		}
	}
	absent := uint64(0)
	for held[absent] {
		absent++
	}
	var miss [1]int32
	if tab.LookupBatch([]uint64{absent}, miss[:]); miss[0] != -1 {
		t.Fatalf("absent key %d found at %d", absent, miss[0])
	}
}
