package main

import (
	"fmt"

	"fastcc"
	"fastcc/internal/gen"
)

// contraction is one case of a workload: two operands and the modes they
// contract. Self-contractions and the QC ovov case pass the same tensor
// twice, as a caller contracting a tensor with itself would.
type contraction struct {
	name string
	l, r *fastcc.Tensor
	spec fastcc.Spec
}

// self reports whether both sides are one tensor over the same modes, in
// which case the engine prepares a single operand.
func (c *contraction) self() bool {
	if c.l != c.r || len(c.spec.CtrLeft) != len(c.spec.CtrRight) {
		return false
	}
	for i := range c.spec.CtrLeft {
		if c.spec.CtrLeft[i] != c.spec.CtrRight[i] {
			return false
		}
	}
	return true
}

// operands returns the distinct tensors of the cases, in first-use order.
func operands(cases []contraction) []*fastcc.Tensor {
	seen := map[*fastcc.Tensor]bool{}
	var ts []*fastcc.Tensor
	for _, c := range cases {
		for _, t := range []*fastcc.Tensor{c.l, c.r} {
			if !seen[t] {
				seen[t] = true
				ts = append(ts, t)
			}
		}
	}
	return ts
}

// frosttCase names one FROSTT self-contraction: a tensor of the paper's
// Table 2 and its contracted modes.
type frosttCase struct {
	tensor string
	modes  []int
}

// frosttInputs synthesizes the FROSTT tensors at the given scale with
// coordinates drawn from seed. Cases over the same tensor share it. With
// intValues the values are small integers, so every summation order gives
// the same bits.
func frosttInputs(cases []frosttCase, scale float64, seed uint64, intValues bool) ([]contraction, error) {
	tensors := map[string]*fastcc.Tensor{}
	var out []contraction
	for _, fc := range cases {
		t, ok := tensors[fc.tensor]
		if !ok {
			spec, err := gen.FrosttByName(fc.tensor)
			if err != nil {
				return nil, err
			}
			spec = spec.Scaled(scale)
			t, err = gen.Uniform(spec.Dims, spec.NNZ, mix64(seed^uint64(len(tensors))), gen.Options{Skew: spec.Skew, IntValues: intValues})
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", fc.tensor, err)
			}
			tensors[fc.tensor] = t
		}
		modes := append([]int(nil), fc.modes...)
		out = append(out, contraction{
			name: gen.ContractionName(fc.tensor, fc.modes),
			l:    t, r: t,
			spec: fastcc.Spec{CtrLeft: modes, CtrRight: modes},
		})
	}
	return out, nil
}

// qcInputs builds the six DLPNO contractions (guanine and caffeine × ovov,
// vvoo, vvov) at the given scale. The molecules keep their preset geometry,
// and seed redraws every integral's value: each value is multiplied by a
// factor drawn from [0.5, 1.5), or replaced by a small integer with
// intValues. Redrawing the geometry instead would change the nonzero counts
// several-fold between seeds (see README.md), and the op times with them.
func qcInputs(scale float64, seed uint64, intValues bool) []contraction {
	var out []contraction
	for i, mol := range gen.Molecules {
		m := mol.Scaled(scale)
		ov, oo, vv := m.TEov(), m.TEoo(), m.TEvv()
		for j, t := range []*fastcc.Tensor{ov, oo, vv} {
			redraw(t, mix64(seed^uint64(3*i+j+1)<<32), intValues)
		}
		spec := fastcc.Spec{CtrLeft: []int{2}, CtrRight: []int{2}}
		out = append(out,
			contraction{name: m.Name + "-ovov", l: ov, r: ov, spec: spec},
			contraction{name: m.Name + "-vvoo", l: vv, r: oo, spec: spec},
			contraction{name: m.Name + "-vvov", l: vv, r: ov, spec: spec},
		)
	}
	return out
}

// redraw replaces t's values with seeded ones (see qcInputs).
func redraw(t *fastcc.Tensor, seed uint64, intValues bool) {
	rng := gen.NewRNG(seed)
	for i := range t.Vals {
		if intValues {
			t.Vals[i] = rng.IntValue()
		} else {
			t.Vals[i] *= 0.5 + rng.Float64()
		}
	}
}
