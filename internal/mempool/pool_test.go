package mempool

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAppendAcrossChunks(t *testing.T) {
	p := New[int](4)
	for i := 0; i < 11; i++ {
		p.Append(i)
	}
	if p.Len() != 11 {
		t.Fatalf("Len=%d", p.Len())
	}
	if got := len(p.Chunks()); got != 3 {
		t.Fatalf("chunks=%d want 3", got)
	}
	i := 0
	Concat(p).ForEach(func(v int) {
		if v != i {
			t.Fatalf("element %d = %d", i, v)
		}
		i++
	})
	if i != 11 {
		t.Fatalf("visited %d", i)
	}
}

// TestExtendAcrossChunks fills pools through Extend, in requests that end
// mid-chunk, fill one exactly and span several, mixed with Append, with and
// without a ChunkCache, and checks that Len, Chunks and Concat see exactly
// what Append alone would have built. The cached pass runs twice over one
// cache, so the second draws recycled chunks (poisoned and checked under
// fastcc_checked).
func TestExtendAcrossChunks(t *testing.T) {
	const chunkLen = 8
	sizes := []int{1, 3, 4, 8, 17, 1, 7, 64, 2, 9}
	cache := NewChunkCache[int](chunkLen)
	for pass, p := range []*Pool[int]{New[int](chunkLen), cache.NewPool(), cache.NewPool()} {
		next := 0
		for i, n := range sizes {
			if i%3 == 2 {
				p.Append(next)
				next++
			}
			for left := n; left > 0; {
				before := p.Len()
				out := p.Extend(left)
				if len(out) == 0 || len(out) > left {
					t.Fatalf("pass %d: Extend(%d) returned %d slots", pass, left, len(out))
				}
				if p.Len() != before+len(out) {
					t.Fatalf("pass %d: Len %d after Extend(%d) returned %d slots at %d", pass, p.Len(), left, len(out), before)
				}
				for k := range out {
					out[k] = next
					next++
				}
				left -= len(out)
			}
		}
		if p.Len() != next {
			t.Fatalf("pass %d: Len=%d want %d", pass, p.Len(), next)
		}
		chunks := p.Chunks()
		if want := (next + chunkLen - 1) / chunkLen; len(chunks) != want {
			t.Fatalf("pass %d: %d chunks, want %d", pass, len(chunks), want)
		}
		for c, ch := range chunks[:len(chunks)-1] {
			if len(ch) != chunkLen {
				t.Fatalf("pass %d: chunk %d holds %d of %d", pass, c, len(ch), chunkLen)
			}
		}
		l := Concat(p)
		i := 0
		l.ForEach(func(v int) {
			if v != i {
				t.Fatalf("pass %d: element %d = %d", pass, i, v)
			}
			i++
		})
		if i != next || l.Len() != next {
			t.Fatalf("pass %d: Concat holds %d (Len %d), want %d", pass, i, l.Len(), next)
		}
		if pass > 0 {
			cache.Release(l)
		}
	}
	if d := cache.Dropped(); d != 0 {
		t.Fatalf("cache dropped %d chunks", d)
	}
}

func TestDefaultChunkLen(t *testing.T) {
	p := New[byte](0)
	p.Append(1)
	if cap(p.Chunks()[0]) != DefaultChunkLen {
		t.Fatalf("cap=%d", cap(p.Chunks()[0]))
	}
}

func TestReset(t *testing.T) {
	p := New[int](2)
	for i := 0; i < 5; i++ {
		p.Append(i)
	}
	p.Reset()
	if p.Len() != 0 {
		t.Fatalf("Len after reset = %d", p.Len())
	}
	p.Append(42)
	if p.Len() != 1 {
		t.Fatal("append after reset")
	}
	sum := 0
	Concat(p).ForEach(func(v int) { sum += v })
	if sum != 42 {
		t.Fatalf("stale elements after reset, sum=%d", sum)
	}
}

func TestConcatNoCopy(t *testing.T) {
	a := New[int](2)
	b := New[int](2)
	for i := 0; i < 3; i++ {
		a.Append(i)
		b.Append(10 + i)
	}
	l := Concat(a, nil, b)
	if l.Len() != 6 {
		t.Fatalf("Len=%d", l.Len())
	}
	want := []int{0, 1, 2, 10, 11, 12}
	i := 0
	l.ForEach(func(v int) {
		if v != want[i] {
			t.Fatalf("element %d = %d want %d", i, v, want[i])
		}
		i++
	})
	// No copy: mutating the pool's chunk shows through the list.
	a.Chunks()[0][0] = 99
	found := false
	l.ForEach(func(v int) { found = found || v == 99 })
	if !found {
		t.Fatal("Concat copied data; expected shared chunks")
	}
}

// TestConcatSpans reorders two cached pools' elements by spans that start
// and end mid-chunk and cross chunk boundaries, and checks the list visits
// them in span order without copying, and that Release hands back every
// chunk whole: none dropped, none left outstanding.
func TestConcatSpans(t *testing.T) {
	c := NewChunkCache[int](4)
	a, b := c.NewPool(), c.NewPool()
	for i := 0; i < 11; i++ {
		a.Append(i)
	}
	for i := 0; i < 6; i++ {
		b.Append(100 + i)
	}
	spans := []Span{{1, 3, 6}, {0, 5, 11}, {0, 0, 1}, {1, 0, 3}, {0, 1, 5}}
	var want []int
	for _, s := range spans {
		for e := s.Lo; e < s.Hi; e++ {
			want = append(want, []int{0, 100}[s.Pool]+e)
		}
	}
	l := ConcatSpans([]*Pool[int]{a, b}, spans)
	if l.Len() != 17 {
		t.Fatalf("Len=%d want 17", l.Len())
	}
	var got []int
	l.ForEach(func(v int) { got = append(got, v) })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v\nwant  %v", got, want)
	}
	// No copy: a write through a pool chunk shows through the list.
	a.Chunks()[1][2] = -6
	got = got[:0]
	for _, v := range l.Chunks() {
		got = append(got, v...)
	}
	if got[4] != -6 {
		t.Fatalf("element 4 = %d after writing its chunk; ConcatSpans copied", got[4])
	}
	c.Release(l)
	if out, d := c.Outstanding(), c.Dropped(); out != 0 || d != 0 {
		t.Fatalf("after Release: %d chunks outstanding, %d dropped; want whole chunks back", out, d)
	}
}

func TestConcatSkipsEmpty(t *testing.T) {
	a := New[int](2)
	l := Concat(a)
	if l.Len() != 0 || len(l.Chunks()) != 0 {
		t.Fatalf("empty concat: %d/%d", l.Len(), len(l.Chunks()))
	}
}

func TestChunkCacheRecycles(t *testing.T) {
	c := NewChunkCache[int](4)
	p := c.NewPool()
	for i := 0; i < 9; i++ {
		p.Append(i)
	}
	l := Concat(p)
	if l.Len() != 9 {
		t.Fatalf("Len=%d", l.Len())
	}
	// Remember the chunk backing arrays, release, and check a new pool gets
	// recycled storage rather than fresh allocations.
	seen := map[*int]bool{}
	for _, ch := range l.Chunks() {
		seen[&ch[:1][0]] = true
	}
	c.Release(l)
	if l.Len() != 0 || len(l.Chunks()) != 0 {
		t.Fatalf("Release left %d elements / %d chunks", l.Len(), len(l.Chunks()))
	}
	p2 := c.NewPool()
	p2.Append(42)
	ch := p2.Chunks()[0]
	if !seen[&ch[:1][0]] {
		t.Skip("sync.Pool dropped the chunk (GC ran); recycling not observable")
	}
	if ch[0] != 42 {
		t.Fatalf("recycled chunk content %v", ch[0])
	}
}

func TestChunkCacheDefaultLen(t *testing.T) {
	c := NewChunkCache[byte](0)
	p := c.NewPool()
	p.Append(1)
	if cap(p.Chunks()[0]) != DefaultChunkLen {
		t.Fatalf("cap=%d", cap(p.Chunks()[0]))
	}
}

func TestFreelist(t *testing.T) {
	f := NewFreelist[string, int](2)
	if _, ok := f.Get("a"); ok {
		t.Fatal("empty freelist returned a value")
	}
	f.Put("a", 1)
	f.Put("a", 2)
	f.Put("a", 3) // over perKey: dropped
	if v, ok := f.Get("a"); !ok || v != 2 {
		t.Fatalf("got %d/%v", v, ok)
	}
	if v, ok := f.Get("a"); !ok || v != 1 {
		t.Fatalf("got %d/%v", v, ok)
	}
	if _, ok := f.Get("a"); ok {
		t.Fatal("third value should have been dropped")
	}
	if _, ok := f.Get("b"); ok {
		t.Fatal("wrong key hit")
	}
}

func TestSlicePool(t *testing.T) {
	var s SlicePool[uint64]
	b := s.Get(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 7, 8, 9)
	s.Put(b)
	b2 := s.Get(10)
	if len(b2) != 0 {
		t.Fatalf("recycled slice not empty: len=%d", len(b2))
	}
	// A larger request than any parked slice must still be satisfied.
	b3 := s.Get(1 << 16)
	if cap(b3) < 1<<16 {
		t.Fatalf("cap=%d", cap(b3))
	}
}

func TestPoolOrderProperty(t *testing.T) {
	f := func(vals []int16) bool {
		p := New[int16](3)
		for _, v := range vals {
			p.Append(v)
		}
		if p.Len() != len(vals) {
			return false
		}
		i := 0
		ok := true
		Concat(p).ForEach(func(v int16) {
			ok = ok && v == vals[i]
			i++
		})
		return ok && i == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
