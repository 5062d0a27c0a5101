package gen

import (
	"fmt"

	"dpals/internal/aig"
)

// Alternative arithmetic architectures: the same function as Adder and
// MultU built from a different structure (parallel-prefix carries, a
// Wallace reduction tree). They are not part of Suite: the equivalence
// checkers' tests use them as equivalents that structural hashing cannot
// merge with Adder and MultU, so only the SAT proof can show they match.

// KoggeStoneAdder returns an n-bit parallel-prefix (Kogge-Stone) adder
// with an (n+1)-bit sum: same function as Adder(n), logarithmic depth.
func KoggeStoneAdder(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("ksadder%d", n))
	x := b.Input("a", n)
	y := b.Input("b", n)

	g := make(Word, n) // generate
	p := make(Word, n) // propagate
	for i := 0; i < n; i++ {
		g[i] = b.G.And(x[i], y[i])
		p[i] = b.G.Xor(x[i], y[i])
	}
	// Prefix combination: (G, P) pairs with span doubling each level.
	G := append(Word{}, g...)
	P := append(Word{}, p...)
	for span := 1; span < n; span <<= 1 {
		nextG := append(Word{}, G...)
		nextP := append(Word{}, P...)
		for i := span; i < n; i++ {
			nextG[i] = b.G.Or(G[i], b.G.And(P[i], G[i-span]))
			nextP[i] = b.G.And(P[i], P[i-span])
		}
		G, P = nextG, nextP
	}
	// Sum bits: s[i] = p[i] ⊕ carry-in[i], carry-in[i] = G[i-1].
	s := make(Word, n+1)
	s[0] = p[0]
	for i := 1; i < n; i++ {
		s[i] = b.G.Xor(p[i], G[i-1])
	}
	s[n] = G[n-1]
	b.Output("s", s)
	return b.G.Sweep()
}

// WallaceMultiplier returns an n×m unsigned multiplier with a Wallace-tree
// partial-product reduction (3:2 counters) and a ripple final adder: same
// function as MultU(n, m), shallower carry chains.
func WallaceMultiplier(n, m int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("wallace%dx%d", n, m))
	x := b.Input("a", n)
	y := b.Input("b", m)
	w := n + m

	// Partial-product bit columns.
	cols := make([][]aig.Lit, w)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			cols[i+j] = append(cols[i+j], b.G.And(x[j], y[i]))
		}
	}
	// Reduce columns with full/half adders until each has ≤ 2 bits.
	for {
		again := false
		next := make([][]aig.Lit, w)
		for c := 0; c < w; c++ {
			col := cols[c]
			for len(col) >= 3 {
				a0, a1, a2 := col[0], col[1], col[2]
				col = col[3:]
				sum := b.G.Xor(b.G.Xor(a0, a1), a2)
				carry := b.G.Maj(a0, a1, a2)
				next[c] = append(next[c], sum)
				if c+1 < w {
					next[c+1] = append(next[c+1], carry)
				}
				again = true
			}
			if len(col) == 2 && len(next[c]) > 0 {
				// Half adder to keep columns shrinking.
				s := b.G.Xor(col[0], col[1])
				cr := b.G.And(col[0], col[1])
				next[c] = append(next[c], s)
				if c+1 < w {
					next[c+1] = append(next[c+1], cr)
				}
				col = nil
				again = true
			}
			next[c] = append(next[c], col...)
		}
		cols = next
		if !again {
			break
		}
	}
	// Final carry-propagate addition of the two remaining rows.
	r0 := make(Word, w)
	r1 := make(Word, w)
	for c := 0; c < w; c++ {
		r0[c], r1[c] = aig.False, aig.False
		if len(cols[c]) > 0 {
			r0[c] = cols[c][0]
		}
		if len(cols[c]) > 1 {
			r1[c] = cols[c][1]
		}
	}
	sum, _ := b.AddCarry(r0, r1, aig.False)
	b.Output("p", sum)
	return b.G.Sweep()
}
