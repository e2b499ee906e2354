// Quickstart: build two small sparse tensors, contract them with FaSTCC,
// and inspect the result and the run statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fastcc"
)

func main() {
	// A 3-mode tensor L[i,j,k] with extents 4x3x5 and a few nonzeros.
	l := fastcc.NewTensor([]uint64{4, 3, 5}, 8)
	l.Append([]uint64{0, 1, 2}, 1.5)
	l.Append([]uint64{1, 0, 2}, -2.0)
	l.Append([]uint64{2, 2, 4}, 3.0)
	l.Append([]uint64{3, 1, 0}, 0.5)

	// A 2-mode tensor R[k,m] with extents 5x6.
	r := fastcc.NewTensor([]uint64{5, 6}, 8)
	r.Append([]uint64{2, 0}, 4.0)
	r.Append([]uint64{2, 5}, 1.0)
	r.Append([]uint64{4, 3}, -1.0)
	r.Append([]uint64{0, 1}, 7.0)

	// O[i,j,m] = Σ_k L[i,j,k]·R[k,m]: contract mode 2 of L with mode 0
	// of R. The output's modes are L's externals (i, j) then R's (m).
	out, stats, err := fastcc.Contract(l, r,
		fastcc.Spec{CtrLeft: []int{2}, CtrRight: []int{0}},
		fastcc.WithMetrics(),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("output: %v\n", out)
	coords := make([]uint64, out.Order())
	for i := 0; i < out.NNZ(); i++ {
		fmt.Printf("  O%v = %g\n", out.CoordsOf(i, coords), out.Vals[i])
	}

	fmt.Printf("\nmodel decision: accumulator=%s tile=%dx%d (estimated output density %.3g)\n",
		stats.Decision.Kind, stats.TileL, stats.TileR, stats.Decision.PNonzero)
	fmt.Printf("phases: linearize=%v build=%v contract=%v concat=%v delinearize=%v\n",
		stats.LinearizeTime, stats.BuildTime, stats.ContractTime, stats.ConcatTime, stats.DelinearizeTime)
	fmt.Printf("counters: %v\n", stats.Counters)
}
