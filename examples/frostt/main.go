// FROSTT example: synthesize the Chicago-crime tensor at reduced scale and
// run the three self-contractions of the paper's evaluation (chicago-0,
// chicago-01, chicago-123), printing the model's decisions and timings.
//
//	go run ./examples/frostt [-scale 0.01]
package main

import (
	"flag"
	"fmt"
	"log"

	"fastcc"
	"fastcc/internal/gen"
)

func main() {
	scale := flag.Float64("scale", 0.01, "workload scale (1 = paper-sized, ~5.3M nonzeros)")
	flag.Parse()

	spec, err := gen.FrosttByName("chicago")
	if err != nil {
		log.Fatal(err)
	}
	scaled := spec.Scaled(*scale)
	tensor, err := scaled.Generate(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chicago @ scale %g: dims=%v nnz=%d density=%.3g\n\n",
		*scale, tensor.Dims, tensor.NNZ(), tensor.Density())

	// The paper contracts the tensor with itself over these mode sets; the
	// subscripts name the contracted modes (Section 6.1).
	for _, modes := range spec.Contractions {
		out, stats, err := fastcc.SelfContract(tensor, modes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s output: order=%d nnz=%-9d accumulator=%-6s tile=%-6d time=%v\n",
			gen.ContractionName("chicago", modes),
			out.Order(), out.NNZ(), stats.Decision.Kind, stats.TileL, stats.TotalTime)
	}

	fmt.Println("\nContracting more modes shrinks the output order (3+3, 2+2, 1+1 external")
	fmt.Println("modes) and changes the output density — watch the accumulator choice.")
}
