package fastcc

import (
	"fmt"
	"strings"
	"time"

	"fastcc/internal/model"
)

// EinsumN evaluates a multi-operand Einstein expression — a sparse tensor
// network (paper Section 7: CoNST, SparseLNR) — as a sequence of pairwise
// FaSTCC contractions:
//
//	// A three-tensor chain: O[i,m] = Σ_{k,l} T1[i,k]·T2[k,l]·T3[l,m]
//	out, plan, err := fastcc.EinsumN("ik,kl,lm->im", t1, t2, t3)
//
// The contraction order is chosen greedily: at each step the pair of
// operands whose pairwise product has the smallest expected nonzero count
// (per the Section 5.1 density model) is contracted first — the standard
// heuristic for keeping sparse intermediates small. The returned Plan
// records the chosen order and per-step statistics.
//
// Label semantics per step follow Einsum: a label shared by the chosen
// pair is summed only if no later operand (or the output) still needs it;
// pairs whose shared labels are still live elsewhere are not contractible
// yet. Expressions where no valid pairwise order exists (e.g. true batch
// indices shared three ways) are rejected.
//
// Operands are prepared via the Preshard machinery, and the prepared form
// is cached per (tensor, contracted modes) for the whole evaluation: a
// tensor appearing in several operand slots (e.g. the same factor repeated
// in a network) is linearized and sharded once, and later steps report
// shard reuse in their Stats.
//
// Options follow the single-contraction entry points uniformly: they are
// validated eagerly (ErrBadOption before any work runs) and forwarded to
// every pairwise step. In particular WithContext — the package's one
// cancellation path — is observed both inside each step (between pipeline
// stages and at tile-task boundaries) and between steps, so canceling the
// context abandons the remaining network promptly with ctx.Err() wrapped.
func EinsumN(expr string, tensors []*Tensor, opts ...Option) (*Tensor, *Plan, error) {
	cfg, err := config(opts)
	if err != nil {
		return nil, nil, err
	}
	lhs, rhs, ok := strings.Cut(expr, "->")
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q has no \"->\"", ErrBadExpr, expr)
	}
	labels := strings.Split(lhs, ",")
	if len(labels) != len(tensors) {
		return nil, nil, fmt.Errorf("%w: %d operand labels for %d tensors", ErrBadExpr, len(labels), len(tensors))
	}
	if len(tensors) == 0 {
		return nil, nil, fmt.Errorf("%w: no operands", ErrBadExpr)
	}
	outLabels := []rune(strings.TrimSpace(rhs))

	ops := make([]*netOperand, len(tensors))
	seen := map[*Tensor]bool{}
	for i, t := range tensors {
		ls := []rune(strings.TrimSpace(labels[i]))
		if len(ls) != t.Order() {
			return nil, nil, fmt.Errorf("%w: operand %d has %d modes but labels %q", ErrBadExpr, i, t.Order(), string(ls))
		}
		if _, err := labelPositions(ls, fmt.Sprintf("operand %d", i)); err != nil {
			return nil, nil, err
		}
		if !seen[t] {
			seen[t] = true
			if err := t.Validate(); err != nil {
				return nil, nil, fmt.Errorf("operand %d: %w", i, err)
			}
		}
		ops[i] = &netOperand{labels: ls, tensor: t}
	}
	if _, err := labelPositions(outLabels, "output"); err != nil {
		return nil, nil, err
	}

	// Per-evaluation cache of prepared operands: a tensor contracted over
	// the same modes in several steps is linearized and sharded once.
	type prepKey struct {
		t     *Tensor
		modes string
	}
	prepared := map[prepKey]*Sharded{}
	// The prepared operands (including those wrapping intermediate products)
	// are dead once the evaluation finishes; drop their shards so a network
	// evaluation leaves nothing charged to the shard-cache budget.
	defer func() {
		for _, s := range prepared {
			s.Drop()
		}
	}()
	preshard := func(t *Tensor, modes []int) (*Sharded, time.Duration, error) {
		k := prepKey{t: t, modes: fmt.Sprint(modes)}
		if s, ok := prepared[k]; ok {
			return s, 0, nil
		}
		t0 := time.Now()
		s, err := preshardValidated(t, modes, "")
		if err != nil {
			return nil, 0, err
		}
		prepared[k] = s
		return s, time.Since(t0), nil
	}

	plan := &Plan{Expr: expr}
	for len(ops) > 1 {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return nil, nil, fmt.Errorf("fastcc: network evaluation canceled: %w", err)
			}
		}
		ai, bi, spec, err := pickPair(ops, outLabels)
		if err != nil {
			return nil, nil, err
		}
		a, b := ops[ai], ops[bi]
		la, linA, err := preshard(a.tensor, spec.CtrLeft)
		if err != nil {
			return nil, nil, err
		}
		rb, linB, err := preshard(b.tensor, spec.CtrRight)
		if err != nil {
			return nil, nil, err
		}
		prod, stats, err := ContractPrepared(la, rb, opts...)
		if err != nil {
			return nil, nil, err
		}
		// Attribute this step's linearization (zero on a cache hit) the way
		// Contract would have.
		stats.LinearizeTime = linA + linB
		stats.TotalTime += stats.LinearizeTime
		merged := mergedLabels(a.labels, b.labels, spec)
		plan.Steps = append(plan.Steps, PlanStep{
			Left:   string(a.labels),
			Right:  string(b.labels),
			Result: string(merged),
			NNZ:    prod.NNZ(),
			Stats:  stats,
		})
		// Replace the pair with the product (preserve slice order).
		next := make([]*netOperand, 0, len(ops)-1)
		for i, op := range ops {
			if i != ai && i != bi {
				next = append(next, op)
			}
		}
		ops = append(next, &netOperand{labels: merged, tensor: prod})
	}

	// Align the final operand's mode order with the requested output.
	final := ops[0]
	if len(final.labels) != len(outLabels) {
		return nil, nil, fmt.Errorf("%w: result has labels %q but output wants %q", ErrBadExpr, string(final.labels), string(outLabels))
	}
	perm := make([]int, len(outLabels))
	for k, lab := range outLabels {
		found := -1
		for m, fl := range final.labels {
			if fl == lab {
				found = m
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("%w: output label %q not produced (result %q)", ErrBadExpr, lab, string(final.labels))
		}
		perm[k] = found
	}
	out, err := final.tensor.Permute(perm)
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// Plan records the pairwise order EinsumN chose.
type Plan struct {
	Expr  string
	Steps []PlanStep
}

// PlanStep is one pairwise contraction of the network.
type PlanStep struct {
	Left, Right string // operand label strings
	Result      string // label string of the product
	NNZ         int    // nonzeros of the product
	Stats       *Stats
}

// String renders the plan compactly, e.g. "(ik×kl→il); (il×lm→im)".
func (p *Plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = fmt.Sprintf("(%s×%s→%s)", s.Left, s.Right, s.Result)
	}
	return strings.Join(parts, "; ")
}

// TotalStats aggregates the per-step Stats into one network-level figure:
// phase timings, task/block counts and data-access counters are summed
// across steps (each step snapshots its own counters, so the sum double
// counts nothing), WorkspaceWords takes the per-step maximum, OutputNNZ is
// the final step's, and Threads the widest step's. The reuse flags report
// whether EVERY step was served from the shard cache — the steady-state a
// server reaches when the same network is evaluated repeatedly. Per-step
// decisions and tile geometry stay in Steps; they have no meaningful sum.
// A plan with no steps (single-operand expression) aggregates to zeros.
func (p *Plan) TotalStats() *Stats {
	agg := &Stats{ShardReused: len(p.Steps) > 0, ShardReusedL: len(p.Steps) > 0, ShardReusedR: len(p.Steps) > 0}
	for _, step := range p.Steps {
		s := step.Stats
		if s == nil {
			continue
		}
		agg.LinearizeTime += s.LinearizeTime
		agg.BuildTime += s.BuildTime
		agg.ContractTime += s.ContractTime
		agg.DrainTime += s.DrainTime
		agg.ConcatTime += s.ConcatTime
		agg.DelinearizeTime += s.DelinearizeTime
		agg.TotalTime += s.TotalTime
		agg.Tasks += s.Tasks
		agg.Blocks += s.Blocks
		if s.Threads > agg.Threads {
			agg.Threads = s.Threads
		}
		agg.OutputNNZ = s.OutputNNZ
		agg.ShardReusedL = agg.ShardReusedL && s.ShardReusedL
		agg.ShardReusedR = agg.ShardReusedR && s.ShardReusedR
		agg.ShardReused = agg.ShardReused && s.ShardReused
		agg.Counters = agg.Counters.Add(s.Counters)
	}
	return agg
}

type netOperand struct {
	labels []rune
	tensor *Tensor
}

// pickPair returns the contractible operand pair with the smallest
// expected product size, together with its pairwise Spec.
func pickPair(ops []*netOperand, outLabels []rune) (ai, bi int, spec Spec, err error) {
	type candidate struct {
		a, b     int
		spec     Spec
		expected float64
	}
	var best *candidate
	for a := 0; a < len(ops); a++ {
		for b := a + 1; b < len(ops); b++ {
			sp, ok := pairSpec(ops, a, b, outLabels)
			if !ok {
				continue
			}
			e := expectedPairNNZ(ops[a], ops[b], sp)
			if best == nil || e < best.expected {
				best = &candidate{a: a, b: b, spec: sp, expected: e}
			}
		}
	}
	if best == nil {
		return 0, 0, Spec{}, fmt.Errorf("%w: no contractible operand pair (disconnected network or three-way shared labels)", ErrBadExpr)
	}
	return best.a, best.b, best.spec, nil
}

// pairSpec builds the Spec contracting every label shared by ops[a] and
// ops[b] that is dead elsewhere (not in any other operand, not in the
// output). The pair is contractible only if it shares at least one such
// label and no shared label is still live elsewhere.
func pairSpec(ops []*netOperand, a, b int, outLabels []rune) (Spec, bool) {
	liveElsewhere := map[rune]bool{}
	for i, op := range ops {
		if i == a || i == b {
			continue
		}
		for _, l := range op.labels {
			liveElsewhere[l] = true
		}
	}
	for _, l := range outLabels {
		liveElsewhere[l] = true
	}
	var spec Spec
	for la, lab := range ops[a].labels {
		for lb, rlab := range ops[b].labels {
			if lab != rlab {
				continue
			}
			if liveElsewhere[lab] {
				return Spec{}, false // batch label: cannot contract this pair yet
			}
			spec.CtrLeft = append(spec.CtrLeft, la)
			spec.CtrRight = append(spec.CtrRight, lb)
		}
	}
	return spec, len(spec.CtrLeft) > 0
}

// mergedLabels returns the label string of a pairwise product: left
// externals then right externals, in operand order (the engine's layout).
func mergedLabels(l, r []rune, spec Spec) []rune {
	ctrL := map[int]bool{}
	for _, m := range spec.CtrLeft {
		ctrL[m] = true
	}
	ctrR := map[int]bool{}
	for _, m := range spec.CtrRight {
		ctrR[m] = true
	}
	var out []rune
	for m, lab := range l {
		if !ctrL[m] {
			out = append(out, lab)
		}
	}
	for m, lab := range r {
		if !ctrR[m] {
			out = append(out, lab)
		}
	}
	return out
}

// expectedPairNNZ estimates the product's nonzero count via the Section
// 5.1 density model, used as the greedy planning cost.
func expectedPairNNZ(a, b *netOperand, spec Spec) float64 {
	lDim, cDim := splitDims(a.tensor, spec.CtrLeft)
	rDim, _ := splitDims(b.tensor, spec.CtrRight)
	if lDim == 0 || rDim == 0 || cDim == 0 {
		return 0
	}
	return model.ExpectedOutputNNZ(model.Inputs{
		NNZL: int64(a.tensor.NNZ()), NNZR: int64(b.tensor.NNZ()),
		LDim: lDim, RDim: rDim, CDim: cDim,
	})
}

// splitDims returns (product of external extents, product of contracted
// extents), saturating instead of overflowing.
func splitDims(t *Tensor, ctr []int) (ext, c uint64) {
	isCtr := make([]bool, t.Order())
	for _, m := range ctr {
		isCtr[m] = true
	}
	ext, c = 1, 1
	for m, d := range t.Dims {
		if isCtr[m] {
			c = satMul(c, d)
		} else {
			ext = satMul(ext, d)
		}
	}
	return ext, c
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > (1<<63)/b {
		return 1 << 63
	}
	return a * b
}
