// Package techmap maps a swept AIG onto a small generic standard-cell
// library and reports area, critical-path delay and the area-delay product
// (ADP). The paper evaluates synthesis quality as the ADP ratio of the
// approximate circuit over the original; any monotone structural cost
// model preserves that ratio's ordering, so this deterministic mapper
// substitutes for ABC + the proprietary cell library of the paper (see
// DESIGN.md, substitutions).
//
// The mapper recognises the standard 3-node XOR/XNOR and MUX shapes and
// absorbs them into dedicated cells; every other AND node maps to an AND2,
// and each node whose complement is consumed pays one shared inverter.
package techmap

import (
	"fmt"
	"sort"

	"dpals/internal/aig"
)

// The generic, technology-neutral cell library Map charges: areas in
// gate-equivalents (NAND2 = 1), delays normalised. The cell names key
// Mapping.Cells: INV, AND2, XOR2 and MUX2.
const (
	invArea, invDelay   = 0.5, 0.35
	and2Area, and2Delay = 1.0, 0.60
	xor2Area, xor2Delay = 2.0, 0.95
	muxArea, muxDelay   = 2.25, 0.90
)

// Mapping is the result of technology mapping.
type Mapping struct {
	Area  float64
	Delay float64
	Cells map[string]int
}

// ADP returns the area-delay product.
func (m Mapping) ADP() float64 { return m.Area * m.Delay }

// String formats the mapping summary.
func (m Mapping) String() string {
	names := make([]string, 0, len(m.Cells))
	for n := range m.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("area=%.2f delay=%.2f adp=%.2f", m.Area, m.Delay, m.ADP())
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, m.Cells[n])
	}
	return s
}

// ADPRatio returns ADP(approx)/ADP(orig) — the paper's quality measure.
func ADPRatio(approx, orig Mapping) float64 {
	if orig.ADP() == 0 {
		return 1
	}
	return approx.ADP() / orig.ADP()
}

// Map maps g (swept internally) onto the generic library.
func Map(g *aig.Graph) Mapping {
	g = g.Sweep()
	m := Mapping{Cells: map[string]int{}}
	if g.NumAnds() == 0 {
		// Wires and inverters only.
		for _, po := range g.POs() {
			if po.IsCompl() && po.Var() != 0 {
				m.Cells["INV"]++
				m.Area += invArea
				m.Delay = invDelay
			}
		}
		return m
	}

	type matchKind uint8
	const (
		plainAnd matchKind = iota
		xorRoot
		muxRoot
		absorbed
	)
	kind := make([]matchKind, g.NumVars())

	// Pattern match: node n = AND(¬u, ¬v) with u = AND(a,b), v = AND(c,d),
	// where {c,d} = {¬a,¬b} (XOR of a,b — complemented output gives XNOR)
	// or u,v share a select literal in opposite polarity (MUX). The inner
	// nodes must be single-fanout and not drive POs so the absorption is
	// legal.
	poRef := make([]bool, g.NumVars())
	for _, po := range g.POs() {
		poRef[po.Var()] = true
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		if !f0.IsCompl() || !f1.IsCompl() {
			continue
		}
		u, w := f0.Var(), f1.Var()
		if !g.IsAnd(u) || !g.IsAnd(w) || u == w {
			continue
		}
		if g.NumFanouts(u) != 1 || g.NumFanouts(w) != 1 || poRef[u] || poRef[w] {
			continue
		}
		if kind[u] != plainAnd || kind[w] != plainAnd {
			continue
		}
		a, b := g.Fanins(u)
		c, d := g.Fanins(w)
		// XOR: {c,d} == {¬a,¬b}
		if (c == a.Not() && d == b.Not()) || (c == b.Not() && d == a.Not()) {
			kind[v] = xorRoot
			kind[u], kind[w] = absorbed, absorbed
			continue
		}
		// MUX: u = AND(s,t), w = AND(¬s,e) (any operand position).
		shared := func(x, y aig.Lit) bool { return x == y.Not() }
		if shared(a, c) || shared(a, d) || shared(b, c) || shared(b, d) {
			kind[v] = muxRoot
			kind[u], kind[w] = absorbed, absorbed
		}
	}

	// Which nodes need an inverter on their output? A node pays one shared
	// INV if any reader consumes it complemented (or a PO does) — except
	// that readers which are absorbed pattern inners don't count (their
	// inversions are internal to the matched cell), and pattern roots
	// consume their inner nodes pre-inverted for free.
	needInv := make([]bool, g.NumVars())
	markUse := func(l aig.Lit) {
		if l.IsCompl() && l.Var() != 0 {
			needInv[l.Var()] = true
		}
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		switch kind[v] {
		case plainAnd:
			f0, f1 := g.Fanins(v)
			markUse(f0)
			markUse(f1)
		case xorRoot, muxRoot:
			// Dedicated cells absorb input polarity (XOR(a,b) = XNOR(ā,b);
			// libraries carry both variants): no inverter charge for the
			// grandchildren literals.
		case absorbed:
			// handled by the root
		}
	}
	for _, po := range g.POs() {
		markUse(po)
	}

	// Accumulate area and compute arrival times.
	arr := make([]float64, g.NumVars())
	add := func(name string, area float64) {
		m.Cells[name]++
		m.Area += area
	}
	litArr := func(l aig.Lit, invFree bool) float64 {
		t := arr[l.Var()]
		if l.IsCompl() && !invFree && l.Var() != 0 {
			t += invDelay
		}
		return t
	}
	for v := range needInv {
		if needInv[v] {
			add("INV", invArea)
		}
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		switch kind[v] {
		case plainAnd:
			add("AND2", and2Area)
			arr[v] = max(litArr(f0, false), litArr(f1, false)) + and2Delay
		case xorRoot:
			add("XOR2", xor2Area)
			arr[v] = max4(g, arr, v) + xor2Delay
		case muxRoot:
			add("MUX2", muxArea)
			arr[v] = max4(g, arr, v) + muxDelay
		case absorbed:
			// No cell; arrival recorded for completeness (the root reads
			// grandchildren directly).
			arr[v] = max(litArr(f0, true), litArr(f1, true))
		}
	}
	for _, po := range g.POs() {
		t := arr[po.Var()]
		if po.IsCompl() && po.Var() != 0 {
			t += invDelay
		}
		m.Delay = max(m.Delay, t)
	}
	return m
}

// max4 returns the worst arrival among the (deduplicated) input signals of
// a matched XOR/MUX root; input polarity is absorbed by the cell, so no
// inverter delay applies.
func max4(g *aig.Graph, arr []float64, v int32) float64 {
	f0, f1 := g.Fanins(v)
	worst := 0.0
	for _, inner := range []int32{f0.Var(), f1.Var()} {
		a, b := g.Fanins(inner)
		for _, l := range []aig.Lit{a, b} {
			if t := arr[l.Var()]; t > worst {
				worst = t
			}
		}
	}
	return worst
}

// Report bundles mapping results for one circuit, for table printing.
type Report struct {
	Ands  int
	Area  float64
	Delay float64
}

// Summarise maps g and returns the Table-I style summary.
func Summarise(g *aig.Graph) Report {
	m := Map(g)
	return Report{Ands: g.Sweep().NumAnds(), Area: m.Area, Delay: m.Delay}
}
