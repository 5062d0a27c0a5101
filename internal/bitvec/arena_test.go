package bitvec

import (
	"sync"
	"testing"
)

func TestArenaAllocRowHandles(t *testing.T) {
	a := NewArena(3)
	if a.Words() != 3 {
		t.Fatalf("Words = %d, want 3", a.Words())
	}
	type rowRec struct {
		h Handle
		v Vec
	}
	var rows []rowRec
	// Cross several slab boundaries (defaultSlabRows per slab).
	n := defaultSlabRows*2 + 10
	for i := 0; i < n; i++ {
		h, v := a.AllocRow()
		if len(v) != 3 {
			t.Fatalf("row %d has %d words, want 3", i, len(v))
		}
		v[0], v[1], v[2] = uint64(i), uint64(i)*3, uint64(i)*7
		rows = append(rows, rowRec{h, v})
	}
	// Handles resolve to the same memory, and no row clobbered another.
	for i, r := range rows {
		got := a.Row(r.h)
		if &got[0] != &r.v[0] {
			t.Fatalf("Row(handle %d) resolved to different memory", i)
		}
		if got[0] != uint64(i) || got[1] != uint64(i)*3 || got[2] != uint64(i)*7 {
			t.Fatalf("row %d content clobbered: %v", i, got)
		}
	}
	st := a.Stats()
	if st.Rows != int64(n) {
		t.Errorf("Stats.Rows = %d, want %d", st.Rows, n)
	}
	if st.SlabAllocs != 3 {
		t.Errorf("Stats.SlabAllocs = %d, want 3 for %d rows", st.SlabAllocs, n)
	}
}

func TestArenaResetRecyclesSlabs(t *testing.T) {
	a := NewArena(2)
	for i := 0; i < defaultSlabRows+5; i++ {
		a.Alloc()
	}
	if a.Live() == 0 {
		t.Fatal("Live must be non-zero with outstanding rows")
	}
	before := a.Stats()

	a.Reset()
	if got := a.Live(); got != 0 {
		t.Fatalf("Live after Reset = %d, want 0 (leak)", got)
	}
	// Re-allocating the same number of rows must reuse the retained slabs:
	// no new slab allocations.
	for i := 0; i < defaultSlabRows+5; i++ {
		a.Alloc()
	}
	after := a.Stats()
	if after.SlabAllocs != before.SlabAllocs {
		t.Errorf("Reset did not recycle slabs: SlabAllocs %d -> %d",
			before.SlabAllocs, after.SlabAllocs)
	}
	if after.Resets != before.Resets+1 {
		t.Errorf("Stats.Resets = %d, want %d", after.Resets, before.Resets+1)
	}
}

func TestArenaRowsDoNotOverlap(t *testing.T) {
	a := NewArena(4)
	v1 := a.Alloc()
	v2 := a.Alloc()
	for i := range v1 {
		v1[i] = ^uint64(0)
	}
	for i := range v2 {
		v2[i] = 0
	}
	for i := range v1 {
		if v1[i] != ^uint64(0) {
			t.Fatal("writing one arena row corrupted its neighbour")
		}
	}
	// Full-slice-expression cap: appending to a row must not spill into
	// the next row's slab words.
	_ = append(v1, 123)
	if v2[0] != 0 {
		t.Fatal("append on an arena row spilled into the next row")
	}
}

func TestNewArenaPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewArena(0) must panic")
		}
	}()
	NewArena(0)
}

// TestPoolStatsInvariant checks Gets = Reuses + Misses, and that the
// pool's arena serves exactly the miss rows.
func TestPoolStatsInvariant(t *testing.T) {
	p := NewPool(4)
	var held []Vec
	for i := 0; i < 10; i++ {
		held = append(held, p.Get())
	}
	for _, v := range held {
		p.Put(v)
	}
	for i := 0; i < 25; i++ {
		p.Put(p.Get())
	}
	st := p.Stats()
	if st.Gets != st.Reuses+st.Misses {
		t.Errorf("Gets(%d) != Reuses(%d)+Misses(%d)", st.Gets, st.Reuses, st.Misses)
	}
	if st.Gets != 35 || st.Misses != 10 {
		t.Errorf("Gets=%d Misses=%d, want 35/10", st.Gets, st.Misses)
	}
	if rows := p.arena.Stats().Rows; rows != st.Misses {
		t.Errorf("arena Rows = %d, want Misses = %d", rows, st.Misses)
	}
}

// TestPoolArenaConcurrent hammers a pool from many
// goroutines; run under -race this checks the locking of both layers.
// Afterwards the stats invariant must still hold and the arena must have
// carved exactly one row per miss.
func TestPoolArenaConcurrent(t *testing.T) {
	p := NewPool(8)
	arena := p.arena
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var local []Vec
			for i := 0; i < iters; i++ {
				v := p.Get()
				v[0] = seed // touch the row so -race sees row writes too
				if i%3 == 0 {
					local = append(local, v)
				} else {
					p.Put(v)
				}
				if len(local) > 4 {
					p.Put(local[0])
					local = local[1:]
				}
			}
			for _, v := range local {
				p.Put(v)
			}
		}(uint64(w))
	}
	wg.Wait()

	st := p.Stats()
	if st.Gets != st.Reuses+st.Misses {
		t.Errorf("Gets(%d) != Reuses(%d)+Misses(%d)", st.Gets, st.Reuses, st.Misses)
	}
	if st.Gets != workers*iters {
		t.Errorf("Gets = %d, want %d", st.Gets, workers*iters)
	}
	if st.Puts != st.Gets {
		t.Errorf("Puts = %d, want %d (all rows returned)", st.Puts, st.Gets)
	}
	ast := arena.Stats()
	if ast.Rows != st.Misses {
		t.Errorf("arena Rows = %d, want pool Misses = %d", ast.Rows, st.Misses)
	}
	// Every word the arena ever carved is accounted for by a miss.
	if live, want := arena.Live(), int(st.Misses)*8; live != want {
		t.Errorf("arena Live = %d words, want %d", live, want)
	}
}

// TestArenaConcurrentAlloc allocates from one arena on many goroutines and
// verifies every row is disjoint (distinct backing memory, no torn carves).
func TestArenaConcurrentAlloc(t *testing.T) {
	a := NewArena(2)
	const workers = 8
	const perWorker = 300 // crosses slab boundaries concurrently
	rows := make([][]Vec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := a.Alloc()
				v[0] = uint64(w)<<32 | uint64(i)
				v[1] = ^v[0]
				rows[w] = append(rows[w], v)
			}
		}(w)
	}
	wg.Wait()
	for w := range rows {
		for i, v := range rows[w] {
			want := uint64(w)<<32 | uint64(i)
			if v[0] != want || v[1] != ^want {
				t.Fatalf("row (%d,%d) clobbered: got %#x", w, i, v[0])
			}
		}
	}
	if st := a.Stats(); st.Rows != workers*perWorker {
		t.Errorf("Rows = %d, want %d", st.Rows, workers*perWorker)
	}
}
