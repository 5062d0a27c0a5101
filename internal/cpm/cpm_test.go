package cpm

import (
	"context"
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/sim"
)

func randomGraph(rng *rand.Rand, nPIs, nAnds, nPOs int) *aig.Graph {
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(minInt(10, len(lits)))].NotIf(rng.Intn(2) == 1), "")
	}
	return g.Sweep()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// liveANDs returns the live AND nodes of g in topological order.
func liveANDs(g *aig.Graph) []int32 {
	var out []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			out = append(out, v)
		}
	}
	return out
}

// freshRows builds the rows of the closure of targets with a fresh cache:
// the from-scratch reference every cache test compares against.
func freshRows(t testing.TB, g *aig.Graph, s *sim.Sim, cuts *cut.Set, targets []int32, threads int) (*Cache, Update) {
	t.Helper()
	c := NewCache(g, s)
	upd, err := c.Rows(context.Background(), cuts, targets, threads)
	if err != nil {
		t.Fatal(err)
	}
	return c, upd
}

// bruteForceRow computes the exact Boolean differences of every PO w.r.t.
// node v by flipping v and fully resimulating a scratch copy of the values.
func bruteForceRow(g *aig.Graph, s *sim.Sim, v int32) map[int32]bitvec.Vec {
	words := s.Words()
	val := make(map[int32]bitvec.Vec)
	flipped := bitvec.NewWords(words)
	flipped.Not(s.Val(v))
	flipped.Mask(s.Patterns())
	val[v] = flipped
	get := func(u int32) bitvec.Vec {
		if fv, ok := val[u]; ok {
			return fv
		}
		return s.Val(u)
	}
	for _, u := range g.Topo() {
		if u == v || !g.IsAnd(u) {
			continue
		}
		f0, f1 := g.Fanins(u)
		a, b := get(f0.Var()), get(f1.Var())
		dst := bitvec.NewWords(words)
		dst.AndMaybeNot(a, b, 0)
		m0, m1 := uint64(0), uint64(0)
		if f0.IsCompl() {
			m0 = ^uint64(0)
		}
		if f1.IsCompl() {
			m1 = ^uint64(0)
		}
		for i := range dst {
			dst[i] = (a[i] ^ m0) & (b[i] ^ m1)
		}
		dst.Mask(s.Patterns())
		val[u] = dst
	}
	out := map[int32]bitvec.Vec{}
	for o, po := range g.POs() {
		d := bitvec.NewWords(words)
		d.Xor(get(po.Var()), s.Val(po.Var()))
		if !d.IsZero() {
			out[int32(o)] = d
		}
	}
	return out
}

func checkAgainstBruteForce(t *testing.T, g *aig.Graph, s *sim.Sim, res *Result, v int32) {
	t.Helper()
	want := bruteForceRow(g, s, v)
	row := res.Row(v)
	got := map[int32]bitvec.Vec{}
	for i, o := range row.POs {
		if !row.Diffs[i].IsZero() {
			got[o] = row.Diffs[i]
		}
	}
	for o, w := range want {
		gv, ok := got[o]
		if !ok {
			t.Fatalf("node %d PO %d: missing diff (brute force has %d flips)", v, o, w.Count())
		}
		if !gv.Equal(w) {
			t.Fatalf("node %d PO %d: diff mismatch (%d vs %d flips)", v, o, gv.Count(), w.Count())
		}
	}
	for o := range got {
		if _, ok := want[o]; !ok {
			t.Fatalf("node %d PO %d: spurious nonzero diff", v, o)
		}
	}
}

func TestDisjointCPMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 6, 70, 6)
		s := sim.New(g, sim.Options{Patterns: 192, Seed: int64(trial)})
		cuts, _ := cut.NewSet(context.Background(), g, 1)
		_, upd := freshRows(t, g, s, cuts, liveANDs(g), 1)
		for _, v := range liveANDs(g) {
			checkAgainstBruteForce(t, g, s, upd.Res, v)
		}
	}
}

func TestVECBEEInfiniteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 6, 60, 5)
		s := sim.New(g, sim.Options{Patterns: 128, Seed: int64(trial)})
		res, _ := BuildVECBEE(context.Background(), g, s, 0, 1)
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				checkAgainstBruteForce(t, g, s, res, v)
			}
		}
	}
}

// On a fanout-free (tree) circuit every depth limit is exact, so l=1 must
// match brute force there.
func TestVECBEEDepth1ExactOnTree(t *testing.T) {
	g := aig.New("tree")
	var leaves []aig.Lit
	for i := 0; i < 16; i++ {
		leaves = append(leaves, g.AddPI(""))
	}
	// Balanced AND/OR tree.
	level := leaves
	for len(level) > 1 {
		var next []aig.Lit
		for i := 0; i+1 < len(level); i += 2 {
			if i%4 == 0 {
				next = append(next, g.And(level[i], level[i+1]))
			} else {
				next = append(next, g.Or(level[i], level[i+1]))
			}
		}
		level = next
	}
	g.AddPO(level[0], "root")
	gg := g.Sweep()
	s := sim.New(gg, sim.Options{Patterns: 256, Seed: 3})
	res, _ := BuildVECBEE(context.Background(), gg, s, 1, 1)
	for _, v := range gg.Topo() {
		if gg.IsAnd(v) {
			checkAgainstBruteForce(t, gg, s, res, v)
		}
	}
}

// l=1 must be conservative-or-wrong only through reconvergence: on a
// reconvergent circuit it may differ from brute force, but l large enough
// must converge to exact.
func TestVECBEEDepthConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 5, 40, 4)
	s := sim.New(g, sim.Options{Patterns: 128, Seed: 9})
	deep := int(g.Depth()) + 2
	res, _ := BuildVECBEE(context.Background(), g, s, deep, 1)
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			checkAgainstBruteForce(t, g, s, res, v)
		}
	}
}

func TestClosureExample2(t *testing.T) {
	// Paper Fig. 6: a and b feed d, their shared disjoint cut, and d
	// drives O1; c drives another output and is not needed. With
	// C(a)=C(b)={d} and C(d)={O1}, N({a,b}) = {a,b,d}, so Rows({a,b})
	// builds exactly the rows of a, b and d.
	g := aig.New("ex2")
	p, q, r := g.AddPI("p"), g.AddPI("q"), g.AddPI("r")
	al := g.And(p, q)
	bl := g.And(q, r)
	dl := g.And(al, bl)
	g.AddPO(dl, "O1")
	g.AddPO(g.And(p, r), "O2")
	s := sim.New(g, sim.Options{Patterns: 64, Seed: 1})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	c, upd := freshRows(t, g, s, cuts, []int32{al.Var(), bl.Var()}, 1)
	if upd.Needed != 3 || upd.Recomputed != 3 {
		t.Fatalf("Needed = %d, Recomputed = %d, want 3 and 3", upd.Needed, upd.Recomputed)
	}
	want := map[int32]bool{al.Var(): true, bl.Var(): true, dl.Var(): true}
	for v := int32(0); v <= g.MaxVar(); v++ {
		if c.valid[v] != want[v] {
			t.Fatalf("node %d: row built = %v, want %v", v, c.valid[v], want[v])
		}
	}
}

// Partial CPM: the rows Rows(targets) builds — the targets and the rest of
// their closure — must match the full computation, and no row outside the
// closure may be built.
func TestPartialMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 6, 80, 6)
		s := sim.New(g, sim.Options{Patterns: 128, Seed: int64(trial)})
		cuts, _ := cut.NewSet(context.Background(), g, 1)
		ands := liveANDs(g)
		_, full := freshRows(t, g, s, cuts, ands, 1)

		// Pick a handful of targets.
		if len(ands) < 4 {
			continue
		}
		targets := []int32{ands[0], ands[len(ands)/3], ands[len(ands)/2], ands[len(ands)-1]}
		pc, part := freshRows(t, g, s, cuts, targets, 1)
		for _, v := range targets {
			if !pc.valid[v] {
				t.Fatalf("trial %d: target %d has no row", trial, v)
			}
		}
		built := 0
		for _, v := range ands {
			if !pc.valid[v] {
				if part.Res.Has(v) {
					t.Fatalf("trial %d: node %d outside the closure has a row", trial, v)
				}
				continue
			}
			built++
			compareRow(t, "partial", v, part.Res.Row(v), full.Res.Row(v))
		}
		if built != part.Needed || part.Recomputed != part.Needed {
			t.Fatalf("trial %d: %d rows built, Needed %d, Recomputed %d", trial, built, part.Needed, part.Recomputed)
		}
	}
}

// BenchmarkCacheRows times a fresh cache's build of the full CPM and of the
// partial CPM over the closure of 60 targets.
func BenchmarkCacheRows(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 24, 1500, 12)
	s := sim.New(g, sim.Options{Patterns: 4096, Seed: 1})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	ands := liveANDs(g)
	for _, bc := range []struct {
		name    string
		targets []int32
	}{{"full", ands}, {"partial", ands[:60]}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewCache(g, s).Rows(context.Background(), cuts, bc.targets, 1)
			}
		})
	}
}

func BenchmarkBuildVECBEEInfinite(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 24, 1500, 12)
	s := sim.New(g, sim.Options{Patterns: 4096, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildVECBEE(context.Background(), g, s, 0, 1)
	}
}

// equalResults compares every retained row of two CPM results bit for bit,
// PO order included.
func equalResults(t *testing.T, label string, g *aig.Graph, a, b *Result) {
	t.Helper()
	for v := int32(0); v <= g.MaxVar(); v++ {
		ra, rb := a.Row(v), b.Row(v)
		if len(ra.POs) != len(rb.POs) {
			t.Fatalf("%s node %d: %d vs %d retained POs", label, v, len(ra.POs), len(rb.POs))
		}
		for i := range ra.POs {
			if ra.POs[i] != rb.POs[i] {
				t.Fatalf("%s node %d: PO order %v vs %v", label, v, ra.POs, rb.POs)
			}
			if !ra.Diffs[i].Equal(rb.Diffs[i]) {
				t.Fatalf("%s node %d PO %d: diff vectors differ", label, v, ra.POs[i])
			}
		}
	}
}

// TestCacheParallelMatchesSerial checks the bit-identity contract of the
// wave-parallel disjoint-cut builder: a fresh cache's Rows at 2 and 8
// threads must equal a serial fresh cache's, for the full CPM and for the
// closure of a random target set.
func TestCacheParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 6, 70, 5)
		s := sim.New(g, sim.Options{Patterns: 256, Seed: int64(trial)})
		cuts, _ := cut.NewSet(context.Background(), g, 1)
		var targets []int32
		for _, v := range g.Topo() {
			if g.IsAnd(v) && rng.Intn(3) == 0 {
				targets = append(targets, v)
			}
		}
		for _, threads := range []int{2, 8} {
			for _, side := range []struct {
				label   string
				targets []int32
			}{{"full", liveANDs(g)}, {"partial", targets}} {
				_, serial := freshRows(t, g, s, cuts, side.targets, 1)
				_, parallel := freshRows(t, g, s, cuts, side.targets, threads)
				equalResults(t, side.label, g, serial.Res, parallel.Res)
				if serial.Needed != parallel.Needed || serial.Work != parallel.Work {
					t.Fatalf("%s threads=%d: Needed/Work %d/%d, serial %d/%d",
						side.label, threads, parallel.Needed, parallel.Work, serial.Needed, serial.Work)
				}
			}
		}
	}
}

// TestBuildVECBEEParallelMatchesSerial covers both VECBEE schedules: the
// level-waved finite-depth build and the single-wave infinite build.
func TestBuildVECBEEParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 6, 70, 5)
		s := sim.New(g, sim.Options{Patterns: 256, Seed: int64(trial)})
		for _, l := range []int{0, 2, 5} {
			for _, threads := range []int{2, 8} {
				full1, _ := BuildVECBEE(context.Background(), g, s, l, 1)
				fullN, _ := BuildVECBEE(context.Background(), g, s, l, threads)
				equalResults(t, "full", g, full1, fullN)
			}
		}
	}
}
