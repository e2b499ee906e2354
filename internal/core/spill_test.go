package core

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
	"fastcc/internal/spill"
	"fastcc/internal/tnsbin"
)

// enableSpill points the process-wide spill tier at a fresh test directory
// and restores the no-spill default at cleanup, so tests in other files
// never see a half-configured disk tier.
func enableSpill(t *testing.T, budget int64) string {
	t.Helper()
	dir := t.TempDir()
	if err := ConfigureSpill(dir, budget, false); err != nil {
		t.Fatalf("ConfigureSpill(%q): %v", dir, err)
	}
	t.Cleanup(func() {
		if err := ConfigureSpill("", 0, false); err != nil {
			t.Errorf("disabling spill: %v", err)
		}
	})
	return dir
}

// spillFiles lists the .fspl files currently in dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), spill.Ext) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestSpillEquivalence is the disk tier's bit-identity acceptance test: for
// every {representation × accumulator} combination, contract cold, force
// every shard through spill-to-disk with a 1-byte budget, contract again —
// the second run must serve its shards from the spill files (reported as
// reuse, no rebuild) and reproduce the cold output bit for bit.
func TestSpillEquivalence(t *testing.T) {
	enableSpill(t, 0)
	rng := rand.New(rand.NewSource(515))
	// 300/17 leaves partial edge tiles, so spilled tiles include a
	// non-dividing remainder tile on the left grid.
	lm := randomMatrix(rng, 300, 40, 2500)
	rm := randomMatrix(rng, 260, 40, 2000)

	type combo struct {
		name string
		rep  InputRep
		acc  model.AccumKind
	}
	combos := []combo{
		{"hash/dense", RepHash, model.AccumDense},
		{"hash/sparse", RepHash, model.AccumSparse},
		{"sorted/dense", RepSorted, model.AccumDense},
		{"sorted/sparse", RepSorted, model.AccumSparse},
	}
	for _, c := range combos {
		// The previous combo left a 1-byte budget in force; the cold run
		// must keep its shards resident for the squeeze below to spill.
		SetShardBudget(-1)
		l, r := NewOperand(lm), NewOperand(rm)
		cfg := Config{Threads: 4, TileL: 17, TileR: 32, Accum: c.acc, Rep: c.rep, Platform: tinyLLC}
		run := func() (*coo.Tensor, *Stats) {
			out, st, err := ContractOperands(l, r, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var ls, rs []uint64
			var vs []float64
			out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
			tn := ref.TriplesToMatrixTensor(ls, rs, vs, lm.ExtDim, rm.ExtDim)
			tn.Sort()
			return tn, st
		}
		cold, _ := run()

		// Force-evict everything; with the disk tier enabled every victim
		// must spill instead of being thrown away.
		before := CacheStats()
		SetShardBudget(1)
		after := CacheStats()
		if after.SpillWrites-before.SpillWrites < 2 {
			t.Fatalf("%s: eviction spilled %d shards, want both operands'",
				c.name, after.SpillWrites-before.SpillWrites)
		}

		reloaded, st := run()
		now := CacheStats()
		if !st.ShardReusedL || !st.ShardReusedR {
			t.Fatalf("%s: post-spill run rebuilt instead of reloading (%+v)", c.name, st)
		}
		if now.SpillReads-after.SpillReads < 2 {
			t.Fatalf("%s: reload performed %d spill reads, want both operands'",
				c.name, now.SpillReads-after.SpillReads)
		}
		if d := now.SpillFallbacks - before.SpillFallbacks; d != 0 {
			t.Fatalf("%s: healthy round trip counted %d spill fallbacks", c.name, d)
		}
		assertBitIdentical(t, c.name+" reloaded", cold, reloaded)

		l.Close()
		r.Close()
	}
	SetShardBudget(0)
}

// TestSpillFaultFallback corrupts the on-disk spill files every way the
// failure matrix names — deleted, truncated, checksum-flipped, stale
// generation stamp — and demands each read-back degrade to a rebuild that
// reproduces the cold output bit for bit, counted under the right typed
// fault. Deterministic: every corruption is applied to both operands'
// files, so the expected counter deltas are exact.
func TestSpillFaultFallback(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		count   func(s SpillFaultSnapshot) int64
	}{
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, func(s SpillFaultSnapshot) int64 { return s.Missing }},
		{"truncated", func(t *testing.T, path string) {
			if err := os.Truncate(path, fileSize(t, path)/2); err != nil {
				t.Fatal(err)
			}
		}, func(s SpillFaultSnapshot) int64 { return s.Truncated }},
		{"checksum", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(s SpillFaultSnapshot) int64 { return s.Checksum }},
		{"stale", func(t *testing.T, path string) {
			// Re-seal the same body under a bumped generation stamp: the
			// envelope and checksum are valid, but the handle's recorded
			// generation no longer matches.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gen := binary.LittleEndian.Uint64(data[8:16])
			var w tnsbin.SectionWriter
			w.Raw(data[:8]) // magic + version, unchanged
			w.U64(gen + 1)
			w.Raw(data[16 : len(data)-4])
			if err := os.WriteFile(path, w.Finish(), 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(s SpillFaultSnapshot) int64 { return s.Stale }},
	}

	rng := rand.New(rand.NewSource(626))
	lm := randomMatrix(rng, 300, 40, 2500)
	rm := randomMatrix(rng, 260, 40, 2000)

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := enableSpill(t, 0)
			l, r := NewOperand(lm), NewOperand(rm)
			defer l.Close()
			defer r.Close()
			cfg := Config{Threads: 4, TileL: 17, TileR: 32, Accum: model.AccumSparse, Rep: RepHash, Platform: tinyLLC}
			run := func() (*coo.Tensor, *Stats) {
				out, st, err := ContractOperands(l, r, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var ls, rs []uint64
				var vs []float64
				out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
				tn := ref.TriplesToMatrixTensor(ls, rs, vs, lm.ExtDim, rm.ExtDim)
				tn.Sort()
				return tn, st
			}
			cold, _ := run()
			SetShardBudget(1)
			defer SetShardBudget(0)

			files := spillFiles(t, dir)
			if len(files) != 2 {
				t.Fatalf("expected both operands' spill files, found %d", len(files))
			}
			for _, f := range files {
				c.corrupt(t, f)
			}

			beforeCache, beforeFaults := CacheStats(), SpillFaults()
			rebuilt, st := run()
			afterCache, afterFaults := CacheStats(), SpillFaults()

			if st.ShardReusedL || st.ShardReusedR {
				t.Fatalf("corrupted reload claims shard reuse (%+v)", st)
			}
			if d := afterCache.SpillFallbacks - beforeCache.SpillFallbacks; d != 2 {
				t.Fatalf("SpillFallbacks rose by %d, want 2 (one per corrupted file)", d)
			}
			if d := c.count(afterFaults) - c.count(beforeFaults); d != 2 {
				t.Fatalf("typed fault counter rose by %d, want 2: %+v", d, afterFaults)
			}
			assertBitIdentical(t, "rebuilt after "+c.name, cold, rebuilt)
		})
	}
}

// fileSize returns path's size, failing the test on error.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSpillFaultDispatch pins the error-to-counter mapping of the fallback
// accounting: every typed spill error lands on its own cause counter, an
// untyped error on the write-failure bucket, and each of them also counts
// one fallback.
func TestSpillFaultDispatch(t *testing.T) {
	cases := []struct {
		err   error
		count func(s SpillFaultSnapshot) int64
	}{
		{spill.ErrMissing, func(s SpillFaultSnapshot) int64 { return s.Missing }},
		{spill.ErrTruncated, func(s SpillFaultSnapshot) int64 { return s.Truncated }},
		{spill.ErrChecksum, func(s SpillFaultSnapshot) int64 { return s.Checksum }},
		{spill.ErrStale, func(s SpillFaultSnapshot) int64 { return s.Stale }},
		{spill.ErrBadHeader, func(s SpillFaultSnapshot) int64 { return s.BadHeader }},
		{os.ErrPermission, func(s SpillFaultSnapshot) int64 { return s.WriteFailed }},
	}
	for _, c := range cases {
		beforeCache, before := CacheStats(), SpillFaults()
		countSpillFault(c.err)
		afterCache, after := CacheStats(), SpillFaults()
		if d := c.count(after) - c.count(before); d != 1 {
			t.Errorf("%v: cause counter rose by %d, want 1", c.err, d)
		}
		if d := afterCache.SpillFallbacks - beforeCache.SpillFallbacks; d != 1 {
			t.Errorf("%v: SpillFallbacks rose by %d, want 1", c.err, d)
		}
	}
}

// TestSpillAdoption pins the warm-restart path at the operand level: a
// content-keyed operand spills under its key, a second operand constructed
// with the same key (the "restarted process") adopts the on-disk image on
// its cold miss, and the adopted shard reproduces the original bit for bit.
func TestSpillAdoption(t *testing.T) {
	dir := t.TempDir()
	if err := ConfigureSpill(dir, 0, true); err != nil { // keep-mode: files outlive their writer
		t.Fatalf("ConfigureSpill: %v", err)
	}
	defer func() {
		if err := ConfigureSpill("", 0, false); err != nil {
			t.Errorf("disabling spill: %v", err)
		}
	}()

	rng := rand.New(rand.NewSource(737))
	lm := randomMatrix(rng, 300, 40, 2500)
	rm := randomMatrix(rng, 260, 40, 2000)
	cfg := Config{Threads: 4, TileL: 17, TileR: 32, Accum: model.AccumSparse, Rep: RepHash, Platform: tinyLLC}
	run := func(l, r *Operand) (*coo.Tensor, *Stats) {
		out, st, err := ContractOperands(l, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ls, rs []uint64
		var vs []float64
		out.ForEach(func(tr Triple) { ls = append(ls, tr.L); rs = append(rs, tr.R); vs = append(vs, tr.V) })
		tn := ref.TriplesToMatrixTensor(ls, rs, vs, lm.ExtDim, rm.ExtDim)
		tn.Sort()
		return tn, st
	}

	l1, r1 := NewKeyedOperand(lm, "adopt-left"), NewKeyedOperand(rm, "adopt-right")
	cold, _ := run(l1, r1)
	SetShardBudget(1) // spill both shards under their content keys
	defer SetShardBudget(0)
	l1.Close()
	r1.Close() // keep-mode Close leaves the files as adoptable orphans

	if got := len(spillFiles(t, dir)); got != 2 {
		t.Fatalf("expected 2 orphaned spill files after Close, found %d", got)
	}

	// "Restart": fresh operands over the same content derive the same keys
	// and must adopt the orphans instead of rebuilding.
	before := CacheStats()
	l2, r2 := NewKeyedOperand(lm, "adopt-left"), NewKeyedOperand(rm, "adopt-right")
	defer l2.Close()
	defer r2.Close()
	adopted, st := run(l2, r2)
	after := CacheStats()
	if !st.ShardReusedL || !st.ShardReusedR {
		t.Fatalf("adoption run rebuilt instead of adopting (%+v)", st)
	}
	if d := after.SpillAdopts - before.SpillAdopts; d != 2 {
		t.Fatalf("SpillAdopts rose by %d, want 2", d)
	}
	assertBitIdentical(t, "adopted", cold, adopted)
}
