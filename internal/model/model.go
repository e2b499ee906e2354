package model

import (
	"fmt"
	"math"
	"math/bits"
)

// AccumKind selects the output tile accumulator.
type AccumKind int

const (
	// AccumAuto lets the probabilistic model decide (Algorithm 7).
	AccumAuto AccumKind = iota
	// AccumDense forces the dense tile (value buffer + touched bitmap).
	AccumDense
	// AccumSparse forces the sparse tile (open-addressing hash table).
	AccumSparse
)

func (k AccumKind) String() string {
	switch k {
	case AccumAuto:
		return "auto"
	case AccumDense:
		return "dense"
	case AccumSparse:
		return "sparse"
	}
	return fmt.Sprintf("AccumKind(%d)", int(k))
}

// maxTileSide caps tile sides so intra-tile indices fit in uint32 (tile
// tables and accumulators store them as uint32).
const maxTileSide = uint64(1) << 31

// Inputs are the contraction statistics the model consumes: nonzero counts
// of the two matrixized operands and the extents of the linearized index
// spaces L, R and C.
type Inputs struct {
	NNZL, NNZR int64
	LDim, RDim uint64
	CDim       uint64
}

// Decision is the model output: accumulator kind and tile sizes, plus the
// intermediate estimates reported in the paper's Table 3.
type Decision struct {
	Kind  AccumKind
	TileL uint64
	TileR uint64

	// PL and PR are the input densities p_L = nnz_L/(L·C), p_R = nnz_R/(R·C).
	PL, PR float64
	// PNonzero is the estimated output density 1-(1-pL·pR)^C (Section 5.1).
	PNonzero float64
	// ENNZ is E_nnz(T²), the expected nonzeros in a cache-sized dense tile.
	ENNZ float64
	// DenseT is the cache-derived dense tile side sqrt(L3/(Ncores·DT))
	// rounded down to a power of two (Section 6.2).
	DenseT uint64
}

// EstimateOutputDensity computes Φ_res = 1 - (1 - pL·pR)^C under the
// uniform-random-nonzeros assumption of Section 5.1, evaluated in log space
// for numerical robustness at the extreme densities of FROSTT tensors
// (pL as small as 7.8e-8 with C ~ 1e9).
func EstimateOutputDensity(in Inputs) (pL, pR, pNonzero float64) {
	lc := float64(in.LDim) * float64(in.CDim)
	rc := float64(in.RDim) * float64(in.CDim)
	if lc == 0 || rc == 0 {
		return 0, 0, 0
	}
	pL = float64(in.NNZL) / lc
	pR = float64(in.NNZR) / rc
	pOverlap := pL * pR
	if pOverlap <= 0 {
		return pL, pR, 0
	}
	if pOverlap >= 1 {
		return pL, pR, 1
	}
	// 1-(1-x)^C = -expm1(C*log1p(-x)): exact for tiny x·C where the direct
	// form underflows to 0.
	pNonzero = -math.Expm1(float64(in.CDim) * math.Log1p(-pOverlap))
	return pL, pR, pNonzero
}

// DenseTileSide returns sqrt(L3/(Ncores·DT)) rounded DOWN to a power of two
// (the paper rounds 724 down to 512 so the drain bitmask arithmetic works).
func DenseTileSide(p Platform) uint64 {
	words := p.L3Bytes / (int64(p.Cores) * p.WordBytes)
	if words < 1 {
		return 1
	}
	t := uint64(math.Sqrt(float64(words)))
	return floorPow2(t)
}

// SparseTileSide returns sqrt(L3_bytes/(17.7·δ·N)) rounded UP to the next
// power of two (Section 5.4: 16-byte entries at 90 % utilization,
// 16/0.9 ≈ 17.7). δ is the estimated output density.
func SparseTileSide(p Platform, delta float64) uint64 {
	if delta <= 0 {
		return maxTileSide
	}
	t2 := float64(p.L3Bytes) / (17.7 * delta * float64(p.Cores))
	t := uint64(math.Ceil(math.Sqrt(t2)))
	ct := ceilPow2(t)
	if ct > maxTileSide {
		return maxTileSide
	}
	return ct
}

// Decide runs Algorithm 7: estimate the expected nonzeros in a cache-sized
// dense tile; if at least one, use dense tiles of that size, otherwise use
// sparse tiles sized from the output density. Tile sides are clamped to the
// (power-of-two ceiling of the) output extents so degenerate dimensions do
// not waste accumulator space.
func Decide(in Inputs, p Platform) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	if in.LDim == 0 || in.RDim == 0 || in.CDim == 0 {
		return Decision{}, fmt.Errorf("model: zero-extent index space %+v", in)
	}
	d := Decision{}
	d.PL, d.PR, d.PNonzero = EstimateOutputDensity(in)
	d.DenseT = DenseTileSide(p)
	d.ENNZ = d.PNonzero * float64(d.DenseT) * float64(d.DenseT)
	if d.ENNZ >= 1 {
		d.Kind = AccumDense
		d.TileL, d.TileR = d.DenseT, d.DenseT
	} else {
		d.Kind = AccumSparse
		t := SparseTileSide(p, d.PNonzero)
		d.TileL, d.TileR = t, t
	}
	d.TileL = clampTile(d.TileL, in.LDim)
	d.TileR = clampTile(d.TileR, in.RDim)
	return d, nil
}

// clampTile shrinks a tile side to the power-of-two ceiling of the extent
// when the extent is smaller than the tile, and enforces the uint32 bound.
func clampTile(t, dim uint64) uint64 {
	if dim < t {
		t = ceilPow2(dim)
	}
	if t > maxTileSide {
		t = maxTileSide
	}
	if t == 0 {
		t = 1
	}
	return t
}

// ForceKind returns the decision with the accumulator kind overridden and
// the tile sizes recomputed for that kind (forcing dense on a
// sparse-decided contraction must not keep the huge sparse tile, and vice
// versa).
func (d Decision) ForceKind(kind AccumKind, in Inputs, p Platform) Decision {
	if kind == AccumAuto || kind == d.Kind {
		return d
	}
	d.Kind = kind
	switch kind {
	case AccumDense:
		d.TileL, d.TileR = d.DenseT, d.DenseT
	case AccumSparse:
		t := SparseTileSide(p, d.PNonzero)
		d.TileL, d.TileR = t, t
	}
	d.TileL = clampTile(d.TileL, in.LDim)
	d.TileR = clampTile(d.TileR, in.RDim)
	return d
}

// ExpectedOutputNNZ returns the model's estimate of total output nonzeros.
func ExpectedOutputNNZ(in Inputs) float64 {
	_, _, p := EstimateOutputDensity(in)
	return p * float64(in.LDim) * float64(in.RDim)
}

func floorPow2(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return 1 << (63 - bits.LeadingZeros64(x))
}

func ceilPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}
