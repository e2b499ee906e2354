// Package hashtable implements the open-addressing hash tables at the heart
// of FaSTCC (paper Sections 2.2 and 4):
//
//   - Sealed maps a contraction index c to the run of (intra-tile index,
//     value) pairs of a tile's nonzeros — the HL_i / HR_j maps of
//     Algorithm 6 — laid out in one arena by BuildSealed.
//   - FloatTable maps a packed (l,r) output position to an accumulated
//     float64 — the sparse tile accumulator of Section 5.4.
//
// Both use linear probing over power-of-two capacities. Open addressing was
// chosen by the paper over Sparta's chaining tables for space efficiency and
// data locality; the chaining design lives in internal/chainhash for the
// Sparta baseline.
package hashtable

import "math/bits"

// Mix is a strong 64-bit finalizer (the splitmix64 output permutation). It
// maps sequential contraction indices to well-spread slots so linear probing
// does not clump on structured inputs.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n - 1)))
}
