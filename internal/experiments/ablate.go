package experiments

import (
	"fmt"

	"fastcc/internal/chainhash"
	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/hashtable"
)

// RunAblations exercises the design choices DESIGN.md calls out, beyond the
// paper's headline plots:
//
//   - A1: tiled CO (FaSTCC) vs. the untiled CO of Algorithm 4;
//   - A3: the CI scheme on CSF vs. on hash tables;
//   - A4: open-addressing vs. chaining input-table construction (the
//     paper's Section 6.4 discussion of Sparta's fast chained insertions);
//   - A6: the CM scheme's sparse workspace vs. Section 3.2's dense one;
//   - A8: a self-contraction's symmetric schedule vs. the full grid.
//
// A2 (forced accumulators, a copy of Table 3's Time_D and Time_S rows), A5
// (linear vs. Robin Hood probing in the sparse accumulator) and A7 (hash vs.
// sorted input tiles) are retired; EXPERIMENTS.md keeps their last numbers.
func RunAblations(cfg Config) error {
	w := cfg.writer()
	fmt.Fprintln(w, "Ablations")
	fmt.Fprintln(w)

	// Workloads: a dense-output case and a sparse-output case.
	denseCase, err := CaseByID("chicago-01")
	if err != nil {
		return err
	}
	sparseCase, err := CaseByID("nips-2")
	if err != nil {
		return err
	}

	// 1. Tiled vs untiled CO (sequential comparison; untiled is sequential).
	fmt.Fprintln(w, "A1: tiled CO (FaSTCC, 1 thread) vs untiled CO (Algorithm 4)")
	t1 := newTable("contraction", "untiled(s)", "tiled(s)", "ratio")
	for _, cs := range []Case{denseCase, sparseCase} {
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		seqCfg := cfg
		seqCfg.Threads = 1
		_, untiledD, err := runBaseline(seqCfg, baseUntiled, l, r, spec, nil)
		if err != nil {
			return err
		}
		_, _, tiledD, err := runFastCC(seqCfg, l, r, spec)
		if err != nil {
			return err
		}
		t1.addf("%s|%s|%s|%.2fx", cs.ID, secs(untiledD), secs(tiledD),
			untiledD.Seconds()/tiledD.Seconds())
	}
	cfg.print(t1)
	fmt.Fprintln(w)

	// 3. CI on CSF vs CI on hash tables (small uniform workload: CI is
	// quadratic in the external extents).
	fmt.Fprintln(w, "A3: CI scheme on CSF (TACO) vs on hash tables")
	lm, err := gen.UniformMatrix(400, 64, 3000, cfg.Seed, gen.Options{})
	if err != nil {
		return err
	}
	rm, err := gen.UniformMatrix(400, 64, 3000, cfg.Seed+1, gen.Options{})
	if err != nil {
		return err
	}
	lt := matrixAsTensor(lm)
	rt := matrixAsTensor(rm)
	spec2 := coo.Spec{CtrLeft: []int{1}, CtrRight: []int{1}}
	_, csfD, err := runBaseline(cfg, baseTaco, lt, rt, spec2, nil)
	if err != nil {
		return err
	}
	_, hashD, err := runBaseline(cfg, baseHashCI, lt, rt, spec2, nil)
	if err != nil {
		return err
	}
	t3 := newTable("variant", "time(s)")
	t3.addf("csf-ci|%s", secs(csfD))
	t3.addf("hash-ci|%s", secs(hashD))
	cfg.print(t3)
	fmt.Fprintln(w)

	// 4. Input-table construction: open addressing vs chaining.
	fmt.Fprintln(w, "A4: input-table build, open addressing vs chaining (1M inserts)")
	big, err := gen.UniformMatrix(1<<20, 1<<16, 1_000_000, cfg.Seed, gen.Options{})
	if err != nil {
		return err
	}
	intra := make([]uint32, len(big.Ext))
	for k, e := range big.Ext {
		intra[k] = uint32(e & 0xFFFFFFFF)
	}
	oaD, err := timeIt(cfg, func() error {
		hashtable.BuildSealed(big.Ctr, intra, big.Val, 1024)
		return nil
	})
	if err != nil {
		return err
	}
	chD, err := timeIt(cfg, func() error {
		t := chainhash.New(1024)
		for k := range big.Val {
			t.Insert(big.Ctr[k], big.Ext[k], big.Val[k])
		}
		return nil
	})
	if err != nil {
		return err
	}
	t4 := newTable("table", "build(s)")
	t4.addf("open-addressing|%s", secs(oaD))
	t4.addf("chaining|%s", secs(chD))
	cfg.print(t4)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Chaining inserts cheaply but loses lookup locality; open addressing")
	fmt.Fprintln(w, "pays resize costs at insertion (the Vast/Uber discussion, Section 6.4).")
	fmt.Fprintln(w)

	// 6. CM workspace kind: Sparta's sparse workspace vs the dense-array
	// workspace option of Section 3.2.
	fmt.Fprintln(w, "A6: CM scheme workspace, sparse (Sparta) vs dense 1D array (Section 3.2)")
	l6, r6, spec6, err := denseCase.Load(cfg)
	if err != nil {
		return err
	}
	_, cmSparseD, err := runBaseline(cfg, baseSparta, l6, r6, spec6, nil)
	if err != nil {
		return err
	}
	_, cmDenseD, err := runBaseline(cfg, baseCMDense, l6, r6, spec6, nil)
	if err != nil {
		return err
	}
	t6 := newTable("workspace", "time(s)")
	t6.addf("sparse (hash)|%s", secs(cmSparseD))
	t6.addf("dense 1D array|%s", secs(cmDenseD))
	cfg.print(t6)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A dense CM workspace wins when R fits in cache; it is infeasible for")
	fmt.Fprintln(w, "the huge linearized R of high-order outputs — the same trade FaSTCC's")
	fmt.Fprintln(w, "tiled accumulators resolve per-tile.")
	fmt.Fprintln(w)

	// 8. Symmetric schedule: a self-contraction of one tensor shards it once
	// and runs only the upper triangle of the tile grid; against a clone,
	// each side gets its own shard and the whole grid runs.
	fmt.Fprintln(w, "A8: self-contraction, symmetric schedule (same tensor) vs full grid (clone)")
	t8 := newTable("contraction", "total full(s)", "total sym(s)", "contract full(s)", "contract sym(s)",
		"tasks full", "tasks sym")
	for _, id := range []string{"nips-013", "vast-01", "vast-014"} {
		cs, err := CaseByID(id)
		if err != nil {
			return err
		}
		l, _, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		_, fullSt, fullD, err := runFastCC(cfg, l, l.Clone(), spec)
		if err != nil {
			return err
		}
		_, symSt, symD, err := runFastCC(cfg, l, l, spec)
		if err != nil {
			return err
		}
		t8.addf("%s|%s|%s|%s|%s|%d|%d", id, secs(fullD), secs(symD),
			secs(fullSt.ContractTime), secs(symSt.ContractTime), fullSt.Tasks, symSt.Tasks)
	}
	cfg.print(t8)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The symmetric schedule drains each off-diagonal pair twice, transposed,")
	fmt.Fprintln(w, "and matches a diagonal tile's keys with themselves instead of probing.")
	fmt.Fprintln(w, "Total time also counts the clone's own linearize and build; contract")
	fmt.Fprintln(w, "time is the schedule alone, from the last repeat.")
	return nil
}

// matrixAsTensor converts a matrixized operand back to a 2-mode tensor.
func matrixAsTensor(m *coo.Matrix) *coo.Tensor {
	t := coo.New([]uint64{m.ExtDim, m.CtrDim}, m.NNZ())
	t.Coords[0] = append(t.Coords[0], m.Ext...)
	t.Coords[1] = append(t.Coords[1], m.Ctr...)
	t.Vals = append(t.Vals, m.Val...)
	return t
}
