package scheduler

import (
	"sync/atomic"
	"testing"
)

func BenchmarkPoolTicketOverhead(b *testing.B) {
	// Measures the dynamic-scheduling cost per (trivial) task.
	var sink atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	Pool(4, b.N, func(_, task int) {
		sink.Add(int64(task & 1))
	})
}
