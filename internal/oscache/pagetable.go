package oscache

import "math/bits"

// pageSlot is one page-table entry. key is the page id plus one, so the
// zero slot is empty. pg is the resident page, or nil for a shadow entry:
// the trace an evicted page leaves behind, which is what lets the cache
// tell a refault (memory contention) from a first-time access — the role
// shadow entries play in the Linux page-cache tree's workingset detection.
type pageSlot struct {
	key int64
	pg  *page
}

// pageTable is the cache's page table: an insert-only, open-addressed hash
// table from page id to entry, with a power-of-two slot array, Fibonacci
// hashing, linear probing and a load factor of at most ½ (growth doubles).
// Entries are never removed — eviction turns a resident entry into a
// shadow — so there are no tombstones and every lookup is one probe run.
type pageTable struct {
	slots []pageSlot
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int  // entries, resident and shadow
}

// fibMul is 2^64/φ, the Fibonacci-hashing multiplier: it spreads the
// strided page ids of a spread-out key layout evenly over the top bits.
const fibMul = 0x9E3779B97F4A7C15

// maxPresizePages caps the capacity-derived initial size, so a cache
// configured for millions of pages (DefaultConfig's 4GB) starts at 1 MB of
// slots and grows only as far as its workload actually reaches. The cap
// still covers a quick-scale fleet node's cache (25,000 pages) whole.
const maxPresizePages = 1 << 15

// tableSlots is the initial slot count for a cache of capacity pages:
// room for the resident set at load ½, capped.
func tableSlots(capacity int) int {
	n := min(capacity, maxPresizePages)
	return 1 << bits.Len(uint(2*n-1)) // next power of two ≥ 2n
}

// reset points the table at a cleared, power-of-two slot array.
func (t *pageTable) reset(slots []pageSlot) {
	t.slots = slots
	t.shift = uint(64 - bits.TrailingZeros(uint(len(slots))))
	t.n = 0
}

// find returns the entry for page id, or nil if the page was never
// resident.
func (t *pageTable) find(id int64) *pageSlot {
	key := id + 1
	if key <= 0 {
		return nil // negative ids are never inserted (claim panics on them)
	}
	mask := len(t.slots) - 1
	for i := int(uint64(key) * fibMul >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s
		}
		if s.key == 0 {
			return nil
		}
	}
}

// claim returns the entry for page id, adding a shadow entry if the page
// was never resident. The returned pointer stays valid until the next
// claim of a new page (growth moves the slots).
func (t *pageTable) claim(id int64) *pageSlot {
	key := id + 1
	if key <= 0 {
		panic("oscache: negative page id")
	}
	for {
		mask := len(t.slots) - 1
		for i := int(uint64(key) * fibMul >> t.shift); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key == key {
				return s
			}
			if s.key != 0 {
				continue
			}
			if 2*(t.n+1) > len(t.slots) {
				break // would pass load ½: grow, then probe again
			}
			s.key = key
			t.n++
			return s
		}
		t.grow()
	}
}

// grow doubles the slot array and rehashes every entry, shadows included.
func (t *pageTable) grow() {
	old, n := t.slots, t.n
	t.reset(make([]pageSlot, 2*len(old)))
	mask := len(t.slots) - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := int(uint64(e.key) * fibMul >> t.shift)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
	t.n = n
}
