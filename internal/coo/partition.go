package coo

import (
	"math/bits"
	"sync"

	"fastcc/internal/mempool"
)

// TilePartition is a tile-major regrouping of a Matrix for the engine's
// Build phase (paper Algorithm 5): nonzero k of tile i lives at position
// Offs[i]+k of the Ctr/Intra/Val arenas, with the operand's original
// nonzero order preserved inside every tile. Each tile's segment is
// contiguous, so a builder thread reads exactly the bytes of the tiles it
// owns — total Build reads drop from O(workers × nnz) under the
// scan-and-filter scheme to O(nnz).
//
// The arenas are drawn from a package-level recycling pool; call Release
// when the partition has been consumed so the next Build reuses them.
type TilePartition struct {
	// Tile is the tile side the partition was computed for.
	Tile uint64
	// Tiles is the tile-grid size ceil(ExtDim/Tile).
	Tiles int
	// Offs bounds tile i's segment: entries Offs[i]..Offs[i+1].
	Offs []int
	// Ctr holds the contraction index of every nonzero, tile-major.
	Ctr []uint64
	// Intra holds the intra-tile external index (ext - tile*i) per nonzero.
	Intra []uint32
	// Val holds the value per nonzero, tile-major.
	Val []float64

	nonEmpty []int
}

// partition arena recycling: Build runs allocate three nnz-sized arenas and
// one counting grid per shard; between builds they park here.
var (
	partInt mempool.SlicePool[int]
	partU64 mempool.SlicePool[uint64]
	partU32 mempool.SlicePool[uint32]
	partF64 mempool.SlicePool[float64]
)

// partitionGridCap bounds the parallel counting grid (workers × tiles
// entries). Above it the counting and scatter passes run with fewer
// workers — still a single O(nnz) sweep, just less parallel — so degenerate
// tilings (tile side 1 over a huge extent) do not allocate a quadratic grid.
const partitionGridCap = 1 << 22

// partitionWorkers caps the partition team so the counting grid stays under
// partitionGridCap entries and tiny inputs stay serial.
func partitionWorkers(workers, tiles, nnz int) int {
	if workers < 1 {
		workers = 1
	}
	if nnz < 1<<14 {
		return 1
	}
	if tiles > 0 {
		if maxW := partitionGridCap / tiles; workers > maxW {
			workers = maxW
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// PartitionByTile regroups m's nonzeros into contiguous per-tile segments
// with a two-pass parallel partition: a counting pass over worker-private
// rows of a shared grid, a prefix sum turning counts into write cursors,
// and a scatter pass into the arenas. Both passes read each nonzero exactly
// once, and the scatter preserves the operand's nonzero order within every
// tile (workers own ascending chunks and cursors are laid out worker-major
// inside each tile's segment), so downstream table builds see the same
// insertion order regardless of worker count. A one-tile grid skips both
// passes: its one segment is the operand, copied in order.
func PartitionByTile(m *Matrix, tile uint64, workers int) *TilePartition {
	nnz := m.NNZ()
	tiles := int((m.ExtDim + tile - 1) / tile)
	// Ownership transfer: the arenas below belong to the TilePartition from
	// Get until its Release puts them back; nothing else may Put them, and
	// no reference survives Release (the build phase reads them strictly
	// before calling it).
	p := &TilePartition{
		Tile:  tile,
		Tiles: tiles,
		Offs:  partInt.Get(tiles + 1)[:tiles+1], //fastcc:owned
		Ctr:   partU64.Get(nnz)[:nnz],           //fastcc:owned
		Intra: partU32.Get(nnz)[:nnz],           //fastcc:owned
		Val:   partF64.Get(nnz)[:nnz],           //fastcc:owned
	}
	if tiles == 1 {
		// One tile holds every nonzero in its original order: the partition
		// is a copy, with the external index as the intra-tile index.
		p.Offs[0], p.Offs[1] = 0, nnz
		copy(p.Ctr, m.Ctr)
		copy(p.Val, m.Val)
		for k, ext := range m.Ext[:nnz] {
			p.Intra[k] = uint32(ext)
		}
		p.nonEmpty = nonEmptyTiles(p.Offs)
		return p
	}
	pw := partitionWorkers(workers, tiles, nnz)

	// Tile sides are powers of two whenever the model chose them; replace
	// the division in the per-nonzero loops with a shift in that case.
	shift := -1
	if tile&(tile-1) == 0 {
		shift = bits.TrailingZeros64(tile)
	}
	mask := tile - 1
	tileOf := func(ext uint64) int {
		if shift >= 0 {
			return int(ext >> shift)
		}
		return int(ext / tile)
	}

	// Pass 1: count nonzeros per (worker, tile). Row w of the grid is
	// private to worker w; chunks are contiguous nnz ranges.
	counts := partInt.Get(pw * tiles)[:pw*tiles]
	for i := range counts {
		counts[i] = 0
	}
	chunk := (nnz + pw - 1) / pw
	parallelChunks(pw, nnz, chunk, func(w, lo, hi int) {
		row := counts[w*tiles : (w+1)*tiles]
		for k := lo; k < hi; k++ {
			row[tileOf(m.Ext[k])]++
		}
	})

	// Prefix sum: segment starts per tile, then per-worker write cursors
	// inside each segment (worker-major so ascending chunks keep the global
	// nonzero order within a tile).
	pos := 0
	for t := 0; t < tiles; t++ {
		p.Offs[t] = pos
		for w := 0; w < pw; w++ {
			c := counts[w*tiles+t]
			counts[w*tiles+t] = pos
			pos += c
		}
	}
	p.Offs[tiles] = pos

	// Pass 2: scatter. Workers write disjoint arena positions, so the pass
	// is race-free without synchronization.
	parallelChunks(pw, nnz, chunk, func(w, lo, hi int) {
		cur := counts[w*tiles : (w+1)*tiles]
		for k := lo; k < hi; k++ {
			ext := m.Ext[k]
			var i int
			var intra uint32
			if shift >= 0 {
				i = int(ext >> shift)
				intra = uint32(ext & mask)
			} else {
				i = int(ext / tile)
				intra = uint32(ext - uint64(i)*tile)
			}
			at := cur[i]
			cur[i] = at + 1
			p.Ctr[at] = m.Ctr[k]
			p.Intra[at] = intra
			p.Val[at] = m.Val[k]
		}
	})
	partInt.Put(counts)

	p.nonEmpty = nonEmptyTiles(p.Offs)
	return p
}

// nonEmptyTiles lists, in ascending order, the tiles whose segment in offs
// holds at least one nonzero.
func nonEmptyTiles(offs []int) []int {
	ne := make([]int, 0, len(offs)-1)
	for t := 0; t+1 < len(offs); t++ {
		if offs[t+1] > offs[t] {
			ne = append(ne, t)
		}
	}
	return ne
}

// NonEmpty returns the indices of tiles holding at least one nonzero, in
// ascending order. The slice is freshly allocated by PartitionByTile (not
// arena-backed), so callers may retain it past Release.
func (p *TilePartition) NonEmpty() []int { return p.nonEmpty }

// Len returns the nonzero count of tile i.
func (p *TilePartition) Len(i int) int { return p.Offs[i+1] - p.Offs[i] }

// Release returns the partition's arenas to the recycling pool. The
// partition must not be used afterwards; the arenas will be overwritten by
// future builds.
func (p *TilePartition) Release() {
	partInt.Put(p.Offs)
	partU64.Put(p.Ctr)
	partU32.Put(p.Intra)
	partF64.Put(p.Val)
	p.Offs, p.Ctr, p.Intra, p.Val = nil, nil, nil, nil
}

// parallelChunks runs fn(w, lo, hi) over contiguous chunks of [0, n) on
// `workers` goroutines (serial when workers == 1).
func parallelChunks(workers, n, chunk int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
