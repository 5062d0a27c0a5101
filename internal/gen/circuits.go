package gen

import (
	"fmt"
	"math"

	"dpals/internal/aig"
)

// Adder returns an n-bit + n-bit ripple adder with an (n+1)-bit sum —
// the paper's EPFL "adder" (128-bit: 256 PIs, 129 POs) at width n.
func Adder(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("adder%d", n))
	x := b.Input("a", n)
	y := b.Input("b", n)
	b.Output("s", b.Add(x, y))
	return b.G.Sweep()
}

// MultU returns an n×m unsigned array multiplier — the paper's "mult16"
// family (16×16: 32 PIs, 32 POs) at width n=m.
func MultU(n, m int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("mult%dx%du", n, m))
	x := b.Input("a", n)
	y := b.Input("b", m)
	b.Output("p", b.MulU(x, y))
	return b.G.Sweep()
}

// MultS returns an n×m signed multiplier — the paper's sm9×8 / sm18×14.
func MultS(n, m int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("sm%dx%d", n, m))
	x := b.Input("a", n)
	y := b.Input("b", m)
	b.Output("p", b.MulS(x, y))
	return b.G.Sweep()
}

// Square returns the x² unit (n-bit input, 2n-bit output) — the paper's
// EPFL "square" at width n.
func Square(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("square%d", n))
	x := b.Input("a", n)
	b.Output("q", b.MulU(x, x))
	return b.G.Sweep()
}

// ALU returns a w-bit ALU (add, sub, and, or, xor, shifted pass, compares)
// with carry/zero/overflow flags; ALU(8) is the c880 stand-in. Its opcode
// has 3 bits:
//
//	000 add   001 sub   010 and   011 or
//	100 xor   101 shl1  110 shr1  111 pass-b
//
// Outputs: result, carry-out, zero, negative, overflow.
func ALU(w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("alu%d", w))
	a := b.Input("a", w)
	c := b.Input("b", w)
	op := b.Input("op", 3)
	cin := b.InputBit("cin")

	sum, cAdd := b.AddCarry(a, c, cin)
	diff, borrow := b.Sub(a, c)
	andW := b.And(a, c)
	orW := b.Or(a, c)
	xorW := b.Xor(a, c)
	shl := b.ShiftLeft(a, 1)
	shr := b.ShiftRight(a, 1)

	// 8:1 mux tree on op.
	m0 := b.Mux(op[0], diff, sum) // 00x
	m1 := b.Mux(op[0], orW, andW) // 01x
	m2 := b.Mux(op[0], shl, xorW) // 10x
	m3 := b.Mux(op[0], c, shr)    // 11x
	lo := b.Mux(op[1], m1, m0)
	hi := b.Mux(op[1], m3, m2)
	res := b.Mux(op[2], hi, lo)

	cout := b.G.Mux(op[2], aig.False, b.G.Mux(op[1], aig.False, b.G.Mux(op[0], borrow, cAdd)))
	zero := b.IsZero(res)
	neg := res[len(res)-1]
	// Signed overflow for add/sub.
	ovfAdd := b.G.And(b.G.Xnor(a[w-1], c[w-1]), b.G.Xor(a[w-1], sum[w-1]))
	ovfSub := b.G.And(b.G.Xor(a[w-1], c[w-1]), b.G.Xor(a[w-1], diff[w-1]))
	ovf := b.G.Mux(op[0], ovfSub, ovfAdd)

	b.Output("y", res)
	b.OutputBit("cout", cout)
	b.OutputBit("zero", zero)
	b.OutputBit("neg", neg)
	b.OutputBit("ovf", ovf)
	return b.G.Sweep()
}

// ALUX is the c3540 stand-in: a richer w-bit ALU that adds a w/2×w/2
// multiply, a masked-add and a majority-vote op to the base ALU mix.
func ALUX(w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("alux%d", w))
	a := b.Input("a", w)
	c := b.Input("b", w)
	op := b.Input("op", 3)

	sum := b.AddTrunc(a, c)
	diff, _ := b.Sub(a, c)
	mul := b.MulU(a[:w/2], c[:w/2]) // w bits
	maskAdd := b.AddTrunc(b.And(a, c), b.Xor(a, c))
	maj := make(Word, w)
	for i := 0; i < w; i++ {
		maj[i] = b.G.Maj(a[i], c[i], a[(i+1)%w])
	}
	rot := append(Word{a[w-1]}, a[:w-1]...) // rotate left 1
	nand := b.Not(b.And(a, c))
	xnor := b.Not(b.Xor(a, c))

	m0 := b.Mux(op[0], diff, sum)
	m1 := b.Mux(op[0], maskAdd, mul)
	m2 := b.Mux(op[0], rot, maj)
	m3 := b.Mux(op[0], xnor, nand)
	lo := b.Mux(op[1], m1, m0)
	hi := b.Mux(op[1], m3, m2)
	res := b.Mux(op[2], hi, lo)

	b.Output("y", res)
	b.OutputBit("parity", b.ReduceXor(res))
	b.OutputBit("ltu", b.LtU(a, c))
	b.OutputBit("eq", b.Eq(a, c))
	return b.G.Sweep()
}

// Detector returns the n-bit SECDED (Hamming) error detector/corrector;
// Detector(16) is the c1908 stand-in. Inputs: n data bits, k Hamming check
// bits (the least k with 2^k ≥ n+k+1) and an overall parity bit, 22 inputs
// for n = 16; outputs: n corrected data bits plus single-error,
// double-error and parity-bit-error flags. Any n ≥ 4 works.
func Detector(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("det%d", n))
	d := b.Input("d", n)
	// Check-bit count: positions 1..n+k in Hamming space.
	k := 1
	for (1 << k) < n+k+1 {
		k++
	}
	c := b.Input("c", k)
	pAll := b.InputBit("p") // overall parity bit

	// Compute syndrome: parity over Hamming positions. Data bit i of the
	// codeword occupies the i-th non-power-of-two position.
	positions := make([]int, 0, n)
	for pos := 1; len(positions) < n; pos++ {
		if pos&(pos-1) != 0 { // not a power of two
			positions = append(positions, pos)
		}
	}
	synd := make(Word, k)
	for bit := 0; bit < k; bit++ {
		x := c[bit]
		for i, pos := range positions {
			if pos>>uint(bit)&1 == 1 {
				x = b.G.Xor(x, d[i])
			}
		}
		synd[bit] = x
	}
	// Overall parity across data, check and parity bits.
	all := pAll
	for _, l := range d {
		all = b.G.Xor(all, l)
	}
	for _, l := range c {
		all = b.G.Xor(all, l)
	}

	syndZero := b.IsZero(synd)
	single := b.G.And(syndZero.Not(), all)       // nonzero syndrome, odd parity
	double := b.G.And(syndZero.Not(), all.Not()) // nonzero syndrome, even parity
	perr := b.G.And(syndZero, all)               // parity bit itself flipped

	// Correct single-bit errors: flip data bit i when syndrome == its
	// position and a single error is indicated.
	corrected := make(Word, n)
	for i, pos := range positions {
		match := aig.True
		for bit := 0; bit < k; bit++ {
			sb := synd[bit]
			if pos>>uint(bit)&1 == 1 {
				match = b.G.And(match, sb)
			} else {
				match = b.G.And(match, sb.Not())
			}
		}
		corrected[i] = b.G.Xor(d[i], b.G.And(match, single))
	}
	b.Output("q", corrected)
	b.OutputBit("serr", single)
	b.OutputBit("derr", double)
	b.OutputBit("perr", perr)
	return b.G.Sweep()
}

// Butterfly returns a radix-2 DIT FFT butterfly on w-bit fixed-point
// complex operands: out0 = a + b·t, out1 = a − b·t, where a, b, t are
// complex (re/im) w-bit signed values. Products are truncated back to
// w+2 bits. The paper's "butterfly" (100 PIs, 72 POs) corresponds to
// w ≈ 16; default experiments use a scaled width.
func Butterfly(w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("butterfly%d", w))
	ar := b.Input("ar", w)
	ai := b.Input("ai", w)
	br := b.Input("br", w)
	bi := b.Input("bi", w)
	tr := b.Input("tr", w)
	ti := b.Input("ti", w)

	// Complex product p = b·t (2w bits, signed), keep top-aligned slice.
	rr := b.MulS(br, tr)
	ii := b.MulS(bi, ti)
	ri := b.MulS(br, ti)
	ir := b.MulS(bi, tr)
	pr, _ := b.Sub(rr, ii) // 2w bits
	pi := b.AddTrunc(ri, ir)

	ext := func(x Word) Word { return b.SignExtend(x, 2*w+1) }
	o0r := b.AddTrunc(ext(ar), ext(pr))
	o0i := b.AddTrunc(ext(ai), ext(pi))
	o1r, _ := b.Sub(ext(ar), ext(pr))
	o1i, _ := b.Sub(ext(ai), ext(pi))

	b.Output("o0r", o0r)
	b.Output("o0i", o0i)
	b.Output("o1r", o1r)
	b.Output("o1i", o1i)
	return b.G.Sweep()
}

// VecMul returns the d-dimensional dot product of w-bit unsigned vectors —
// the paper's "vecmul8" (8 dimensions × 16 bits: 256 PIs, 35 POs) at
// configurable scale.
func VecMul(d, w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("vecmul%dx%d", d, w))
	outW := 2*w + bitsFor(d)
	acc := b.Const(0, outW)
	for i := 0; i < d; i++ {
		x := b.Input(fmt.Sprintf("x%d", i), w)
		y := b.Input(fmt.Sprintf("y%d", i), w)
		p := b.MulU(x, y)
		acc = b.AddTrunc(acc, b.ZeroExtend(p, outW))
	}
	b.Output("s", acc)
	return b.G.Sweep()
}

func bitsFor(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// Sqrt returns an n-bit integer square root unit (restoring digit
// recurrence, unrolled): output has ⌈n/2⌉ bits — the paper's EPFL "sqrt"
// at width n.
func Sqrt(n int) *aig.Graph {
	if n%2 != 0 {
		n++
	}
	m := n / 2
	b := NewBuilder(fmt.Sprintf("sqrt%d", n))
	x := b.Input("a", n)
	w := m + 2 // remainder width
	rem := b.Const(0, w)
	root := b.Const(0, w)
	for i := m - 1; i >= 0; i-- {
		// rem = rem<<2 | x[2i+1..2i]
		rem = b.ShiftLeft(rem, 2)
		rem[0] = x[2*i]
		rem[1] = x[2*i+1]
		// trial = root<<2 | 01
		trial := b.ShiftLeft(root, 2)
		trial[0] = aig.True
		diff, borrow := b.Sub(rem, trial)
		bit := borrow.Not()
		rem = b.Mux(bit, diff, rem)
		// root = root<<1 | bit
		root = b.ShiftLeft(root, 1)
		root[0] = bit
	}
	b.Output("r", root[:m])
	return b.G.Sweep()
}

// Log2 returns a fixed-point log2 unit: for an n-bit input x ≥ 1 it
// produces ⌈log2(n)⌉ integer bits and f fractional bits of log2(x) by
// normalisation plus the squaring digit recurrence — the paper's EPFL
// "log2" at configurable precision (f squarings, each a multiplier).
func Log2(n, f int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("log2_%d_%d", n, f))
	x := b.Input("a", n)
	ib := bitsFor(n)

	// Integer part: index of the MSB (priority encoder).
	msb := b.Const(0, ib)
	found := aig.False
	for i := n - 1; i >= 0; i-- {
		hit := b.G.And(x[i], found.Not())
		for k := 0; k < ib; k++ {
			if i>>uint(k)&1 == 1 {
				msb[k] = b.G.Or(msb[k], hit)
			}
		}
		found = b.G.Or(found, x[i])
	}

	// Normalise x to [1, 2): left-shift so the MSB lands at position n−1.
	// Barrel shifter over the ib shift bits of (n−1−msbIndex).
	shiftAmt, _ := b.Sub(b.Const(uint64(n-1), ib), msb)
	norm := x
	for k := 0; k < ib; k++ {
		shifted := b.ShiftLeft(norm, 1<<uint(k))
		norm = b.Mux(shiftAmt[k], shifted, norm)
	}
	// Mantissa m in [1,2) with n−1 fraction bits; keep the top p bits.
	p := n
	mant := norm // implicit leading one at norm[n-1]

	// Fraction bits: repeatedly square the mantissa; each square ≥ 2
	// yields a 1 bit and renormalises.
	frac := make(Word, f)
	for i := f - 1; i >= 0; i-- {
		sq := b.MulU(mant, mant) // 2p bits, value in [1,4)
		bit := sq[2*p-1]         // ≥ 2 ?
		hi := sq[p : 2*p]        // sq / 2^p  (when ≥2: [1,2))
		lo := append(Word{}, sq[p-1:2*p-1]...)
		mant = b.Mux(bit, hi, lo)
		frac[i] = bit
	}
	b.Output("f", frac)
	b.Output("i", msb)
	return b.G.Sweep()
}

// Sin returns a w-bit fixed-point sine unit built from an unrolled CORDIC
// rotation (w iterations) — the paper's EPFL "sin" (24-bit) at width w.
// The input is an angle in [0, π/2) as a w-bit fraction of π/2; the output
// is sin(angle) as a w-bit fraction, plus the final cosine word.
func Sin(w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("sin%d", w))
	z := b.Input("a", w)

	g := w + 2 // guard bits width
	// CORDIC gain-compensated start vector: x = K, y = 0 with
	// K = ∏ 1/sqrt(1+2^-2i) ≈ 0.60725...
	kVal := uint64(math.Round(0.6072529350088813 * float64(uint64(1)<<uint(w))))
	x := b.ZeroExtend(b.Const(kVal, w+1), g)
	y := b.Const(0, g)
	// Angle accumulator in units of (π/2)/2^w, signed, g bits.
	zt := b.ZeroExtend(z, g)

	iters := w
	if iters > 24 {
		iters = 24
	}
	for i := 0; i < iters; i++ {
		// atan(2^-i) in the same angle units.
		at := uint64(math.Round(math.Atan(math.Ldexp(1, -i)) / (math.Pi / 2) * float64(uint64(1)<<uint(w))))
		atW := b.Const(at, g)
		neg := zt[g-1] // rotate direction: sign of residual angle
		xs := b.ShiftRightArith(x, i)
		ys := b.ShiftRightArith(y, i)
		xAdd := b.AddTrunc(x, ys)
		xSub, _ := b.Sub(x, ys)
		yAdd := b.AddTrunc(y, xs)
		ySub, _ := b.Sub(y, xs)
		zAdd := b.AddTrunc(zt, atW)
		zSub, _ := b.Sub(zt, atW)
		x = b.Mux(neg, xAdd, xSub)
		y = b.Mux(neg, ySub, yAdd)
		zt = b.Mux(neg, zAdd, zSub)
	}
	// Saturate at 1.0: sin(θ)→1 makes y reach 2^w, one past the top code.
	sat := y[w]
	sOut := make(Word, w)
	cOut := make(Word, w)
	for i := 0; i < w; i++ {
		sOut[i] = b.G.Or(y[i], sat)
		cOut[i] = b.G.Or(x[i], x[w])
	}
	b.Output("s", sOut)
	b.Output("c", cOut)
	return b.G.Sweep()
}

// Parity returns the n-input odd-parity tree (a classic single-output
// stress case: every input affects the output).
func Parity(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("parity%d", n))
	x := b.Input("a", n)
	b.OutputBit("p", b.ReduceXor(x))
	return b.G.Sweep()
}

// Comparator returns an n-bit unsigned comparator with lt/eq/gt outputs.
func Comparator(n int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("cmp%d", n))
	x := b.Input("a", n)
	y := b.Input("b", n)
	lt := b.LtU(x, y)
	eq := b.Eq(x, y)
	b.OutputBit("lt", lt)
	b.OutputBit("eq", eq)
	b.OutputBit("gt", b.G.And(lt.Not(), eq.Not()))
	return b.G.Sweep()
}

// MAC returns a multiply-accumulate unit: a·b + c with w-bit a, b and
// 2w-bit c, producing 2w+1 bits.
func MAC(w int) *aig.Graph {
	b := NewBuilder(fmt.Sprintf("mac%d", w))
	x := b.Input("a", w)
	y := b.Input("b", w)
	c := b.Input("c", 2*w)
	p := b.MulU(x, y)
	b.Output("s", b.Add(p, c))
	return b.G.Sweep()
}
