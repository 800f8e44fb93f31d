package cpu

import (
	"math/rand"
	"testing"

	"svbench/internal/isa"
)

// refStores is the map-based store-forwarding set storeTable replaced:
// storing a granule that makes it hold more than 512 entries empties it.
type refStores map[uint64]uint64

func (r *refStores) put(key, val uint64) {
	(*r)[key] = val
	if len(*r) > storeTableMax {
		*r = refStores{}
	}
}

func checkStoreTable(t *testing.T, step string, s *storeTable, ref refStores, keys []uint64) {
	t.Helper()
	if s.n != len(ref) {
		t.Fatalf("%s: table holds %d granules, want %d", step, s.n, len(ref))
	}
	for _, k := range keys {
		got, ok := s.get(k)
		want, wok := ref[k]
		if ok != wok || got != want {
			t.Fatalf("%s: get(%#x) = %d,%v, want %d,%v", step, k, got, ok, want, wok)
		}
	}
}

func TestStoreTableMatchesReferenceModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	// Stack-like consecutive granules, scattered heap granules and key 0,
	// from a pool larger than the table bound so clears recur.
	var keys []uint64
	for i := uint64(0); i < 600; i++ {
		keys = append(keys, 0x7ff000>>3+i)
	}
	for i := 0; i < 400; i++ {
		keys = append(keys, rnd.Uint64()>>3)
	}
	keys = append(keys, 0)

	var s storeTable
	s.clear()
	ref := refStores{}
	clears := 0
	for i := 0; i < 20000; i++ {
		k := keys[rnd.Intn(len(keys))]
		if rnd.Intn(3) != 0 {
			k = keys[rnd.Intn(64)] // hot granules: updates in place
		}
		v := rnd.Uint64()
		before := len(ref)
		s.put(k, v)
		ref.put(k, v)
		if len(ref) < before {
			clears++
		}
		if got, ok := s.get(k); ok != (len(ref) > 0) || (ok && got != v) {
			t.Fatalf("op %d: get after put(%#x) = %d,%v", i, k, got, ok)
		}
		if i%97 == 0 {
			checkStoreTable(t, "random stream", &s, ref, keys)
		}
	}
	if clears == 0 {
		t.Fatal("stream never reached the clear-at-513 rule")
	}
}

func TestStoreTableClearsAt513(t *testing.T) {
	var s storeTable
	s.clear()
	ref := refStores{}
	keys := make([]uint64, storeTableMax+1)
	for i := range keys {
		keys[i] = uint64(i) * 977
	}
	for i, k := range keys[:storeTableMax] {
		s.put(k, uint64(i)+1)
		ref.put(k, uint64(i)+1)
	}
	checkStoreTable(t, "512 granules", &s, ref, keys)
	// Updating a resident granule at the bound keeps every entry.
	s.put(keys[7], 99)
	ref.put(keys[7], 99)
	checkStoreTable(t, "update at the bound", &s, ref, keys)
	// The 513th distinct granule drops every entry, itself included.
	s.put(keys[storeTableMax], 5)
	ref.put(keys[storeTableMax], 5)
	if len(ref) != 0 {
		t.Fatalf("reference kept %d granules", len(ref))
	}
	checkStoreTable(t, "513th granule", &s, ref, keys)
	s.put(keys[0], 3)
	ref.put(keys[0], 3)
	checkStoreTable(t, "after the clear", &s, ref, keys)
}

// TestStoreForwardingResets: ColdStart and ResetPipeline empty the
// forwarding set, and neither allocates.
func TestStoreForwardingResets(t *testing.T) {
	o := newTestO3()
	st := func(pc, addr uint64) {
		t.Helper()
		rec := alu(pc, isa.NoDep, 1, 2)
		rec.Class = isa.ClassStore
		rec.MemAddr, rec.MemSize = addr, 8
		if _, err := o.Retire(&rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, reset := range []struct {
		name string
		fn   func()
	}{
		{"ColdStart", o.ColdStart},
		{"ResetPipeline", func() { o.ResetPipeline(o.coupler) }},
	} {
		st(0x1000, 0x8000)
		st(0x1004, 0x8010)
		if _, ok := o.storeDone.get(0x8000 >> 3); !ok {
			t.Fatalf("%s: store not recorded", reset.name)
		}
		reset.fn()
		for _, addr := range []uint64{0x8000, 0x8010} {
			if _, ok := o.storeDone.get(addr >> 3); ok || o.storeDone.n != 0 {
				t.Fatalf("%s: granule %#x survived", reset.name, addr)
			}
		}
		if n := testing.AllocsPerRun(10, reset.fn); n != 0 {
			t.Errorf("%s allocates %.0f times", reset.name, n)
		}
	}
}
