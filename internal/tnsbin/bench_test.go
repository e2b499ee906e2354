package tnsbin_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"fastcc"
	"fastcc/internal/gen"
	"fastcc/internal/tnsbin"
)

// benchCase is one codec input from the daemon round trip.
type benchCase struct {
	name string
	t    *fastcc.Tensor
}

// benchCases are serve-churn's caffeine tensors at QC scale 0.1: the vvov
// contraction's output in the engine's tile order (unsorted, 4 modes,
// 286,160 nnz), as WriteBTNS meets a library result, and the vv
// operand, which an upload encodes as generated (sorted, 3 modes, 355,779
// nnz).
var benchCases = sync.OnceValues(func() ([]benchCase, error) {
	m := gen.Caffeine.Scaled(0.1)
	vv, ov := m.TEvv(), m.TEov()
	out, _, err := fastcc.Contract(vv, ov, fastcc.Spec{CtrLeft: []int{2}, CtrRight: []int{2}}, fastcc.WithThreads(1))
	if err != nil {
		return nil, err
	}
	return []benchCase{{"caffeine-vvov-out", out}, {"caffeine-vv", vv}}, nil
})

func loadBenchCases(b *testing.B) []benchCase {
	cs, err := benchCases()
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// reportPerElem adds the mean time per stored element.
func reportPerElem(b *testing.B, nnz int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/elem")
}

// BenchmarkWriteBTNS times Write on each case, and EncodeKeys on the
// vvov output's key and value columns, the form the daemon encodes from.
func BenchmarkWriteBTNS(b *testing.B) {
	cs := loadBenchCases(b)
	for _, c := range cs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tnsbin.Write(io.Discard, c.t); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, c.t.NNZ())
		})
	}
	out := cs[0].t.Clone()
	out.Sort()
	keys, err := out.LinearizeModes([]int{0, 1, 2, 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(cs[0].name+"-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tnsbin.EncodeKeys(out.Dims, keys, out.Vals); err != nil {
				b.Fatal(err)
			}
		}
		reportPerElem(b, len(keys))
	})
}

func BenchmarkReadBTNS(b *testing.B) {
	for _, c := range loadBenchCases(b) {
		var buf bytes.Buffer
		if err := tnsbin.Write(&buf, c.t); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tnsbin.Read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, c.t.NNZ())
		})
	}
}
