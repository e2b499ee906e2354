// Tensor-network example: evaluate a multi-tensor Einstein expression as a
// sequence of pairwise FaSTCC contractions with model-driven greedy
// ordering (the sparse-tensor-network setting of the paper's related work,
// Section 7 — CoNST, SparseLNR).
//
//	go run ./examples/network
package main

import (
	"fmt"
	"log"

	"fastcc"
	"fastcc/internal/gen"
)

func main() {
	// A chain network T1[i,k] · T2[k,l] · T3[l,m] → O[i,m], with a large
	// middle tensor: the planner should contract a small end first.
	t1, err := gen.Uniform([]uint64{300, 200}, 3000, 1, gen.Options{})
	if err != nil {
		log.Fatal(err)
	}
	t2, err := gen.Uniform([]uint64{200, 400}, 20000, 2, gen.Options{})
	if err != nil {
		log.Fatal(err)
	}
	t3, err := gen.Uniform([]uint64{400, 100}, 2000, 3, gen.Options{})
	if err != nil {
		log.Fatal(err)
	}

	out, plan, err := fastcc.EinsumN("ik,kl,lm->im",
		[]*fastcc.Tensor{t1, t2, t3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("expression: ik,kl,lm->im")
	fmt.Println("chosen plan:", plan)
	for i, s := range plan.Steps {
		fmt.Printf("  step %d: %s × %s -> %s  (%d nnz, accumulator=%s, %v)\n",
			i+1, s.Left, s.Right, s.Result, s.NNZ, s.Stats.Decision.Kind, s.Stats.TotalTime)
	}
	fmt.Printf("result: %v\n", out)

	// The same expression with the output transposed — EinsumN permutes
	// the final mode order for free (header-level transpose).
	outT, _, err := fastcc.EinsumN("ik,kl,lm->mi",
		[]*fastcc.Tensor{t1, t2, t3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transposed result dims: %v\n", outT.Dims)
}
