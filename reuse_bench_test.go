// Benchmarks for the prepared-operand API: what Preshard/ContractPrepared
// amortize relative to the one-shot Contract path on a FROSTT-shaped
// self-contraction. The bench/ module's qc-warm workload measures the same
// warm path end to end.
package fastcc_test

import (
	"testing"

	"fastcc"
	"fastcc/internal/model"
)

func BenchmarkContractReuse(b *testing.B) {
	l, r, spec := loadCase(b, "chicago-01")
	opts := []fastcc.Option{fastcc.WithPlatform(model.Desktop8)}

	b.Run("cold", func(b *testing.B) {
		// Every iteration pays linearize + build + contract.
		for i := 0; i < b.N; i++ {
			if _, _, err := fastcc.Contract(l, r, spec, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		// Preshard once; iterations pay only the contract stage. The FROSTT
		// cases are self-contractions, so one prepared operand serves both
		// sides.
		ls, err := fastcc.Preshard(l, spec.CtrLeft, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fastcc.ContractPrepared(ls, ls, opts...); err != nil {
			b.Fatal(err) // populate the model-chosen tile shard
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := fastcc.ContractPrepared(ls, ls, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if !st.ShardReused || st.BuildTime != 0 {
				b.Fatalf("warm iteration missed the shard cache: %+v", st)
			}
		}
	})
}
