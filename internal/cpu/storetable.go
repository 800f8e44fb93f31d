package cpu

// storeTableMax bounds the store-forwarding set: storing a granule that
// would make it hold more than this many drops every entry, that granule
// included.
const storeTableMax = 512

// The open-addressing table has 2^storeTableBits slots, at least twice
// storeTableMax, so probe chains stay short.
const (
	storeTableBits  = 10
	storeTableSlots = 1 << storeTableBits
)

type storeSlot struct {
	key, val uint64
	gen      uint32 // the slot is live only when gen equals the table's
}

// storeTable maps 8-byte granules to the completion time of the most
// recent store to them. It is a fixed linear-probing hash table emptied
// in O(1) by bumping a generation counter, so neither a store nor a clear
// allocates. Call clear before first use.
type storeTable struct {
	slots [storeTableSlots]storeSlot
	gen   uint32
	n     int
}

// slot returns the index holding key, or the free slot where it belongs.
func (s *storeTable) slot(key uint64) int {
	i := int((key * 0x9E3779B97F4A7C15) >> (64 - storeTableBits))
	for {
		sl := &s.slots[i]
		if sl.gen != s.gen || sl.key == key {
			return i
		}
		i = (i + 1) & (storeTableSlots - 1)
	}
}

func (s *storeTable) get(key uint64) (uint64, bool) {
	sl := &s.slots[s.slot(key)]
	if sl.gen != s.gen {
		return 0, false
	}
	return sl.val, true
}

// put records a store. Storing the (storeTableMax+1)-th distinct granule
// clears the table instead.
func (s *storeTable) put(key, val uint64) {
	sl := &s.slots[s.slot(key)]
	if sl.gen == s.gen {
		sl.val = val
		return
	}
	if s.n == storeTableMax {
		s.clear()
		return
	}
	*sl = storeSlot{key: key, val: val, gen: s.gen}
	s.n++
}

// clear empties the table. Slots are zeroed only when the generation
// counter wraps, so no stale generation can ever match again.
func (s *storeTable) clear() {
	s.gen++
	if s.gen == 0 {
		s.slots = [storeTableSlots]storeSlot{}
		s.gen = 1
	}
	s.n = 0
}
