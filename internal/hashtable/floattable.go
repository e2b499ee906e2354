package hashtable

import "math/bits"

// FloatTable is an open-addressing map from uint64 keys to accumulated
// float64 values: the sparse tile accumulator of paper Section 5.4. Each
// logical entry is 16 bytes (8-byte key + 8-byte value), matching the
// paper's sizing formula T = sqrt(L3_bytes / (17.7 * δ * N)); occupancy is
// tracked in a side bitmap so the full key space remains usable.
//
// The table grows at 85% load so that a model-sized table targeting 90%
// utilization of its cache share rarely spills (one final growth would
// double it; the model's headroom factor 17.7 ≈ 16/0.9 accounts for this).
type FloatTable struct {
	mask  uint64
	keys  []uint64
	vals  []float64
	occ   []uint64 // occupancy bitmap, one bit per slot
	n     int
	grows int
	next  int // the occ word DrainBatch resumes at
}

const floatMaxLoad = 0.85

// NewFloatTable returns a table sized for about hint entries.
func NewFloatTable(hint int) *FloatTable {
	capacity := nextPow2(int(float64(hint)/floatMaxLoad) + 1)
	if capacity < 16 {
		capacity = 16
	}
	return &FloatTable{
		mask: uint64(capacity - 1),
		keys: make([]uint64, capacity),
		vals: make([]float64, capacity),
		occ:  make([]uint64, (capacity+63)/64),
	}
}

// Len returns the number of distinct keys.
func (t *FloatTable) Len() int { return t.n }

// Cap returns the current slot count.
func (t *FloatTable) Cap() int { return len(t.keys) }

// Grows returns how many times the table has doubled (resize-cost metric
// referenced in paper Section 6.4).
func (t *FloatTable) Grows() int { return t.grows }

func (t *FloatTable) occupied(slot uint64) bool {
	return t.occ[slot>>6]&(1<<(slot&63)) != 0
}

func (t *FloatTable) setOccupied(slot uint64) {
	t.occ[slot>>6] |= 1 << (slot & 63)
}

// Upsert adds v to the value stored at key, inserting the key when absent —
// WS.upsert from paper Algorithm 4.
//
//fastcc:hotpath
func (t *FloatTable) Upsert(key uint64, v float64) {
	slot := Mix(key) & t.mask
	for {
		if !t.occupied(slot) {
			if float64(t.n+1) > floatMaxLoad*float64(len(t.keys)) {
				t.grow()
				t.Upsert(key, v)
				return
			}
			t.keys[slot] = key
			t.vals[slot] = v
			t.setOccupied(slot)
			t.n++
			return
		}
		if t.keys[slot] == key {
			t.vals[slot] += v
			return
		}
		slot = (slot + 1) & t.mask
	}
}

// Get returns the accumulated value for key.
//
//fastcc:hotpath
func (t *FloatTable) Get(key uint64) (float64, bool) {
	slot := Mix(key) & t.mask
	for {
		if !t.occupied(slot) {
			return 0, false
		}
		if t.keys[slot] == key {
			return t.vals[slot], true
		}
		slot = (slot + 1) & t.mask
	}
}

// ForEach visits every (key, value) in unspecified order.
func (t *FloatTable) ForEach(fn func(key uint64, v float64)) {
	for slot := uint64(0); slot < uint64(len(t.keys)); slot++ {
		if t.occupied(slot) {
			fn(t.keys[slot], t.vals[slot])
		}
	}
}

// DrainBatch moves entries into keys and vals in slot order, removing them
// from the table, and returns how many it moved. It walks the occupancy
// words and moves whole words only, so keys and vals must hold at least 64
// entries; it stops at the first word that does not fit and the next call
// resumes there. A return of 0 means the table is empty; it keeps its
// capacity. No Upsert may come between the first call and the one that
// returns 0.
//
//fastcc:hotpath
func (t *FloatTable) DrainBatch(keys []uint64, vals []float64) int {
	occ, tk, tv := t.occ, t.keys, t.vals
	vals = vals[:len(keys)]
	n := 0
	for wi := t.next; wi < len(occ); wi++ {
		word := occ[wi]
		if word == 0 {
			continue
		}
		if n+bits.OnesCount64(word) > len(keys) {
			t.next, t.n = wi, t.n-n
			return n
		}
		base := wi << 6
		for ; word != 0; word &= word - 1 {
			slot := base | bits.TrailingZeros64(word)
			keys[n], vals[n] = tk[slot], tv[slot]
			n++
		}
		occ[wi] = 0
	}
	t.next, t.n = 0, 0
	return n
}

// Reset drops all entries but keeps capacity, so a worker can reuse one
// accumulator across tile tasks.
func (t *FloatTable) Reset() {
	clear(t.occ)
	t.n, t.next = 0, 0
}

func (t *FloatTable) grow() {
	oldKeys, oldVals, oldOcc := t.keys, t.vals, t.occ
	capacity := len(oldKeys) * 2
	t.keys = make([]uint64, capacity)
	t.vals = make([]float64, capacity)
	t.occ = make([]uint64, (capacity+63)/64)
	t.mask = uint64(capacity - 1)
	t.n = 0
	t.grows++
	for slot := range oldKeys {
		if oldOcc[slot>>6]&(1<<(uint(slot)&63)) != 0 {
			t.insertFresh(oldKeys[slot], oldVals[slot])
		}
	}
}

// insertFresh inserts a key known to be absent, without load checking
// (capacity was just doubled).
func (t *FloatTable) insertFresh(key uint64, v float64) {
	slot := Mix(key) & t.mask
	for t.occupied(slot) {
		slot = (slot + 1) & t.mask
	}
	t.keys[slot] = key
	t.vals[slot] = v
	t.setOccupied(slot)
	t.n++
}
