package bitvec

import "sync"

// Pool is a free list of equally-sized vectors. The CPM cache recycles the
// diff vectors of invalidated rows through a Pool instead of releasing them
// to the garbage collector, so steady-state phase-2 iterations of the
// dual-phase flows allocate near zero.
//
// Get returns a vector with ARBITRARY content — callers must fully
// overwrite it (every consumer in package cpm writes all words of a diff
// vector before publishing it). Put hands a vector back; the caller must
// not retain any reference to it afterwards.
//
// Misses are carved from a slab Arena the pool owns, so a miss costs one
// slab carve and a heap allocation only once per defaultSlabRows misses.
// The arena is never Reset: it lives exactly as long as the pool, so
// recycled and freshly carved vectors are interchangeable.
//
// A Pool is safe for concurrent use. Whether a vector comes from the free
// list or from a fresh carve never changes computed results, so pooled
// builds stay bit-identical to unpooled ones.
type Pool struct {
	words int
	arena *Arena // slab backing for misses

	mu   sync.Mutex
	free []Vec

	stats PoolStats
}

// PoolStats is a snapshot of a Pool's free-list behaviour, the raw
// material of the pool-effectiveness metrics: every Get is either a reuse
// (served from the free list) or a miss (carved from the arena), so
// Gets = Reuses + Misses always holds. The counts depend only on the
// deterministic row-recompute/invalidate schedule, not on worker
// interleaving, so they are identical between runs for every thread
// count.
type PoolStats struct {
	Gets      int64 // vectors handed out
	Puts      int64 // vectors recycled back into the free list
	Misses    int64 // Gets carved from the arena (free list empty)
	Reuses    int64 // Gets served from the free list
	HighWater int64 // maximum free-list length ever observed
}

// HitRate returns Reuses/Gets — the fraction of handed-out vectors that
// avoided an allocation (0 before the first Get).
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Reuses) / float64(s.Gets)
}

// NewPool returns a pool of vectors of w words each, backed by its own
// arena.
func NewPool(w int) *Pool { return &Pool{words: w, arena: NewArena(w)} }

// Get returns a vector of the pool's word length. Its content is
// unspecified; the caller must overwrite every word it reads back.
func (p *Pool) Get() Vec {
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Reuses++
		p.mu.Unlock()
		return v
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.arena.Alloc()
}

// Put recycles v into the free list. v must have the pool's word length and
// must not be used by the caller afterwards. Put(nil) is a no-op.
func (p *Pool) Put(v Vec) {
	if v == nil {
		return
	}
	if len(v) != p.words {
		panic("bitvec: Pool.Put of a vector with the wrong word length")
	}
	p.mu.Lock()
	p.free = append(p.free, v)
	p.stats.Puts++
	if n := int64(len(p.free)); n > p.stats.HighWater {
		p.stats.HighWater = n
	}
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
