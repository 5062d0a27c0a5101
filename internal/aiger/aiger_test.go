package aiger

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

func equivalent(t *testing.T, a, b *aig.Graph, patterns int) bool {
	t.Helper()
	sa := sim.New(a, sim.Options{Patterns: patterns, Seed: 9})
	sb := sim.New(b, sim.Options{Patterns: patterns, Seed: 9})
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

func TestRoundTrip(t *testing.T) {
	graphs := []*aig.Graph{
		gen.Adder(8),
		gen.MultS(5, 4),
		gen.Detector(8),
		gen.Sqrt(8),
	}
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := back.Check(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if back.NumPIs() != g.NumPIs() || back.NumPOs() != g.NumPOs() {
			t.Fatalf("%s: interface changed", g.Name)
		}
		if !equivalent(t, g, back, 1024) {
			t.Fatalf("%s: not equivalent after roundtrip", g.Name)
		}
	}
}

func TestReadKnownExample(t *testing.T) {
	// AND of two inputs, plus constant outputs — from the AIGER spec.
	src := "aag 3 2 0 3 1\n2\n4\n6\n0\n1\n6 4 2\ni0 x\ni1 y\no0 and\n"
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPIs() != 2 || g.NumPOs() != 3 {
		t.Fatalf("interface %d/%d", g.NumPIs(), g.NumPOs())
	}
	s := sim.New(g, sim.Options{Patterns: 4})
	v := bitvec.NewWords(s.Words())
	s.POVal(0, v)
	for p := 0; p < 4; p++ {
		if v.Get(p) != (p == 3) {
			t.Fatalf("and output wrong at %d", p)
		}
	}
	s.POVal(1, v)
	if v.Get(0) || v.Get(3) {
		t.Error("const0 output wrong")
	}
	s.POVal(2, v)
	if !v.Get(0) || !v.Get(3) {
		t.Error("const1 output wrong")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	graphs := []*aig.Graph{
		gen.Adder(8),
		gen.MultU(5, 5),
		gen.Detector(8),
		gen.ALU(4),
	}
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := back.Check(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !equivalent(t, g, back, 1024) {
			t.Fatalf("%s: binary roundtrip not equivalent", g.Name)
		}
	}
}

// Binary and ASCII encodings of the same circuit must decode to equivalent
// graphs.
func TestBinaryMatchesASCII(t *testing.T) {
	g := gen.Sqrt(10)
	var ba, bb bytes.Buffer
	if err := Write(&ba, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, g); err != nil {
		t.Fatal(err)
	}
	ga, err := Read(&ba)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Read(&bb)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, ga, gb, 1024) {
		t.Fatal("binary and ASCII decode differ")
	}
}

func TestVarintRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	vals := []uint64{0, 1, 127, 128, 129, 16383, 16384, 1 << 32, 1<<63 - 1}
	for _, v := range vals {
		if err := writeVarint(bw, v); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	br := bufio.NewReader(&buf)
	for _, want := range vals {
		got, err := readVarint(br)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("varint %d decoded as %d", want, got)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"binaryTruncated": "aig 3 2 0 1 1\n",
		"binaryBadHeader": "aig 9 2 0 1 1\n",
		"latches":         "aag 3 1 1 1 0\n2\n4 2\n4\n",
		"badHeader":       "aag 3 2 0\n",
		"badInput":        "aag 2 1 0 1 0\n3\n2\n",
		"order":           "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n",
		"overflow":        "aag 2 1 0 1 1\n2\n4\n4 2 9\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteHeaderCounts(t *testing.T) {
	g := gen.MultU(4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	var tag string
	var m, i, l, o, a int
	if _, err := fmt.Sscanf(buf.String(), "%s %d %d %d %d %d", &tag, &m, &i, &l, &o, &a); err != nil {
		t.Fatal(err)
	}
	if i != g.NumPIs() || o != g.NumPOs() || a != g.NumAnds() || l != 0 {
		t.Errorf("header aag %d %d %d %d %d vs graph %d PIs %d POs %d ANDs",
			m, i, l, o, a, g.NumPIs(), g.NumPOs(), g.NumAnds())
	}
	if m != i+a {
		t.Errorf("maxvar %d != inputs+ands %d", m, i+a)
	}
}

// A malformed header must be rejected up front — before any allocation
// proportional to its counts. The pre-hardening reader allocated
// m+1 literal slots straight from the header, so a 30-byte file claiming
// two billion variables demanded gigabytes.
func TestReadRejectsImplausibleHeader(t *testing.T) {
	cases := map[string]string{
		"hugeMaxvar":      "aag 2000000000 1 0 1 0\n2\n2\n",
		"hugeBinary":      "aig 2000000000 1000000000 0 0 1000000000\n",
		"hugeOutputs":     "aag 2 1 0 1000000000 0\n2\n",
		"maxvarTooSmall":  "aag 1 2 0 0 2\n2\n4\n",
		"binaryMismatch":  "aig 9 2 0 1 1\n6\n",
		"countsDontFit":   "aag 100 50 0 25 25\n2\n",
		"negativeField":   "aag 3 -1 0 1 0\n2\n",
		"overCapAndGates": "aag 100000000 50000000 0 0 50000000\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Truncation inside a mandatory section must be a hard, line-attributed
// error. The pre-hardening readLine returned partial text with a nil
// error, silently mistaking a cut-off file for a complete one.
func TestReadRejectsTruncation(t *testing.T) {
	full := "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n"
	if _, err := Read(strings.NewReader(full)); err != nil {
		t.Fatalf("intact model rejected: %v", err)
	}
	cases := map[string]string{
		"midInputs":  "aag 3 2 0 1 1\n2\n",
		"midOutputs": "aag 3 2 0 2 1\n2\n4\n6\n",
		"midAnds":    "aag 4 2 0 1 2\n2\n4\n8\n6 4 2\n",
		"emptyBody":  "aag 3 2 0 1 1\n",
	}
	for name, src := range cases {
		_, err := Read(strings.NewReader(src))
		if err == nil {
			t.Errorf("%s: truncated model accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "declares") {
			t.Errorf("%s: error does not mention truncation: %v", name, err)
		}
	}
	// Binary: AND deltas cut off mid-stream.
	g := gen.Adder(4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	cut := buf.String()
	cut = cut[:strings.Index(cut, "\n")+1+g.NumPOs()*2+3]
	if _, err := Read(strings.NewReader(cut)); err == nil {
		t.Error("truncated binary AND section accepted")
	}
}

// Out-of-range and duplicate definitions must error, not panic. The input
// literal bound is a regression: the pre-hardening reader indexed the
// literal table with v>>1 unchecked.
func TestReadRejectsBadDefinitions(t *testing.T) {
	cases := map[string]string{
		"inputBeyondMaxvar": "aag 3 1 0 1 0\n2000\n2\npadpadpadpadpadpad\n",
		"inputTwice":        "aag 3 2 0 1 1\n2\n2\n6\n6 4 2\n",
		"andTwice":          "aag 4 1 0 1 3\n2\n4\n4 2 2\n4 2 3\n6 4 2\n",
		"outputUndefined":   "aag 3 1 0 1 0\n2\n6\npadpadpad\n",
	}
	for name, src := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: reader panicked: %v", name, r)
				}
			}()
			if _, err := Read(strings.NewReader(src)); err == nil {
				t.Errorf("%s: expected error", name)
			}
		}()
	}
}

// MaxVars caps header-driven allocation for readers whose size is
// unknowable (plain streams).
func TestReadHonoursMaxVarsOnPlainStream(t *testing.T) {
	src := "aag 100000000 1 0 1 0\n2\n2\n"
	// io.MultiReader hides Len/Seek, so the size heuristic cannot apply.
	if _, err := Read(io.MultiReader(strings.NewReader(src))); err == nil {
		t.Error("over-cap header accepted on a plain stream")
	}
}
