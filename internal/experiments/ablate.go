package experiments

import (
	"fmt"

	"fastcc"
	"fastcc/internal/accum"
	"fastcc/internal/chainhash"
	"fastcc/internal/coo"
	"fastcc/internal/gen"
	"fastcc/internal/hashtable"
)

// RunAblations exercises the design choices DESIGN.md calls out, beyond the
// paper's headline plots:
//
//  1. tiled CO (FaSTCC) vs. the untiled CO of Algorithm 4;
//  2. forced-dense vs. forced-sparse accumulators on a dense-output and an
//     ultra-sparse-output workload (extends Table 3);
//  3. the CI scheme on CSF vs. on hash tables;
//  4. open-addressing vs. chaining input-table construction (the paper's
//     Section 6.4 discussion of Sparta's fast chained insertions).
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

	// 2. Accumulator ablation.
	fmt.Fprintln(w, "A2: forced accumulator kind (model would choose per Algorithm 7)")
	t2 := newTable("contraction", "dense(s)", "sparse(s)", "model chooses")
	for _, cs := range []Case{denseCase, sparseCase} {
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		dec, err := decideFor(cfg, l, r, spec)
		if err != nil {
			return err
		}
		denseS := "DNF"
		if grid, err := denseGrid(l, r, spec, dec.DenseT); err == nil && grid <= 32<<20 {
			_, _, d, err := runFastCC(cfg, l, r, spec, fastcc.WithAccumulator(fastcc.AccumDense))
			if err != nil {
				return err
			}
			denseS = secs(d)
		}
		_, _, dS, err := runFastCC(cfg, l, r, spec, fastcc.WithAccumulator(fastcc.AccumSparse))
		if err != nil {
			return err
		}
		t2.addf("%s|%s|%s|%s", cs.ID, denseS, secs(dS), dec.Kind.String())
	}
	cfg.print(t2)
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

	// 5. Sparse accumulator probing scheme: linear vs Robin Hood (the
	// improved-hashing direction of Feng et al., Section 7.2).
	fmt.Fprintln(w, "A5: sparse accumulator upserts, linear vs Robin Hood probing (2M upserts)")
	keys := make([]uint64, 2_000_000)
	rg := gen.NewRNG(cfg.Seed)
	for i := range keys {
		keys[i] = rg.Uint64() % (1 << 21)
	}
	linD, err := timeIt(cfg, func() error {
		a := accum.NewSparse(1 << 18)
		for _, k := range keys {
			a.Upsert(uint32(k>>10), uint32(k&1023), 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	robD, err := timeIt(cfg, func() error {
		a := accum.NewSparseRobin(1 << 18)
		for _, k := range keys {
			a.Upsert(uint32(k>>10), uint32(k&1023), 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t5 := newTable("probing", "time(s)")
	t5.addf("linear|%s", secs(linD))
	t5.addf("robin-hood|%s", secs(robD))
	cfg.print(t5)
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
