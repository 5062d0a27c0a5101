package blif

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

// equivalent checks functional equivalence of two graphs with identical
// PI/PO interfaces by bit-parallel simulation.
func equivalent(t *testing.T, a, b *aig.Graph, patterns int) bool {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %d/%d PIs, %d/%d POs", a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	sa := sim.New(a, sim.Options{Patterns: patterns, Seed: 5})
	sb := sim.New(b, sim.Options{Patterns: patterns, Seed: 5})
	va := bitvec.NewWords(sa.Words())
	vb := bitvec.NewWords(sb.Words())
	for o := 0; o < a.NumPOs(); o++ {
		sa.POVal(o, va)
		sb.POVal(o, vb)
		if !va.Equal(vb) {
			return false
		}
	}
	return true
}

func TestRoundTripCircuits(t *testing.T) {
	graphs := []*aig.Graph{
		gen.Adder(8),
		gen.MultU(5, 4),
		gen.ALU(4),
		gen.Comparator(6),
		gen.Parity(7),
	}
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", g.Name, err)
		}
		if err := back.Check(); err != nil {
			t.Fatalf("%s: invalid graph after roundtrip: %v", g.Name, err)
		}
		if !equivalent(t, g, back, 1024) {
			t.Fatalf("%s: roundtrip not equivalent", g.Name)
		}
	}
}

func TestReadSOP(t *testing.T) {
	src := `
# a 2:1 mux in classic BLIF
.model mux
.inputs s a b
.outputs y
.names s a b y
11- 1
0-1 1
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPIs() != 3 || g.NumPOs() != 1 {
		t.Fatalf("mux interface wrong: %d/%d", g.NumPIs(), g.NumPOs())
	}
	// Verify the function exhaustively.
	s := sim.New(g, sim.Options{Patterns: 8})
	out := bitvec.NewWords(s.Words())
	s.POVal(0, out)
	for p := 0; p < 8; p++ {
		sv := p&1 != 0
		av := p&2 != 0
		bv := p&4 != 0
		want := bv
		if sv {
			want = av
		}
		if out.Get(p) != want {
			t.Fatalf("mux pattern %d: got %v want %v", p, out.Get(p), want)
		}
	}
}

func TestReadOffsetCover(t *testing.T) {
	src := `
.model nor2
.inputs a b
.outputs y
.names a b y
1- 0
-1 0
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(g, sim.Options{Patterns: 4})
	out := bitvec.NewWords(s.Words())
	s.POVal(0, out)
	for p := 0; p < 4; p++ {
		want := p == 0
		if out.Get(p) != want {
			t.Fatalf("nor2 pattern %d: got %v want %v", p, out.Get(p), want)
		}
	}
}

func TestReadConstantsAndOrder(t *testing.T) {
	// Tables out of topological order plus constant drivers.
	src := `
.model weird
.inputs a
.outputs y z one
.names t a y
11 1
.names t
1
.names a t z
10 1
.names one
1
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(g, sim.Options{Patterns: 2})
	y := bitvec.NewWords(s.Words())
	z := bitvec.NewWords(s.Words())
	one := bitvec.NewWords(s.Words())
	s.POVal(0, y)
	s.POVal(1, z)
	s.POVal(2, one)
	// y = t∧a = a; z = a∧¬t = 0; one = 1.
	if y.Get(0) != false || y.Get(1) != true {
		t.Error("y should equal a")
	}
	if z.Get(0) || z.Get(1) {
		t.Error("z should be constant 0")
	}
	if !one.Get(0) || !one.Get(1) {
		t.Error("one should be constant 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"latch":      ".model m\n.inputs a\n.outputs q\n.latch a q\n.end",
		"mixedCover": ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end",
		"badChar":    ".model m\n.inputs a\n.outputs y\n.names a y\nx 1\n.end",
		"undefOut":   ".model m\n.inputs a\n.outputs nope\n.end",
		"cycle":      ".model m\n.inputs a\n.outputs y\n.names y a y\n11 1\n.end",
		"dupSignal":  ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end",
		"width":      ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestRoundTripConstantPOs(t *testing.T) {
	g := aig.New("constpo")
	a, b := g.AddPI("a"), g.AddPI("b")
	g.AddPO(g.And(a, b), "y")
	g.AddPO(aig.False, "zero")
	g.AddPO(aig.True, "one")
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, g, back, 256) {
		t.Fatal("constant-PO circuit roundtrip not equivalent")
	}
}

func TestWriteStable(t *testing.T) {
	g := gen.Adder(4)
	var b1, b2 bytes.Buffer
	if err := Write(&b1, g); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, g); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("BLIF writer is not deterministic")
	}
	if !strings.Contains(b1.String(), ".model adder4") {
		t.Error("model name missing")
	}
}

// Tables listed in reverse dependency order must resolve in linear time.
// Regression: the old iterate-until-settled loop was quadratic in the
// table count and needed seconds for a few hundred kilobytes.
func TestReverseOrderedTablesResolveFast(t *testing.T) {
	const n = 16000
	var b bytes.Buffer
	b.WriteString(".model chain\n.inputs a\n.outputs s0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".names s%d s%d\n1 1\n", i+1, i)
	}
	fmt.Fprintf(&b, ".names a s%d\n1 1\n.end\n", n)
	start := time.Now()
	g, err := Read(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("reverse chain of %d tables took %v", n, d)
	}
	if g.NumPIs() != 1 || g.NumPOs() != 1 {
		t.Errorf("interface %d/%d", g.NumPIs(), g.NumPOs())
	}
}
