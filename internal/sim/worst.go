package sim

import (
	"context"
	"fmt"
	"math/bits"

	"dpals/internal/aig"
)

// chunkWords is the number of 64-pattern words a WorstCase simulates at a
// time: the unit of its memory (O(nodes × chunkWords) words) and of its
// cancellation checks.
const chunkWords = 64

// WorstCase measures the worst-case error of approximations of one
// reference circuit by enumerating the whole input space, without holding
// it: the patterns are generated and simulated chunk by chunk, with the
// enumeration of New. The error of a pattern is |approx − ref|, both
// output vectors read as unsigned LSB-first integers. The reference output
// words are simulated once, by NewWorstCase, and kept (outputs ×
// 2^inputs/64 words); every Max call simulates only the approximation.
//
// A WorstCase is not safe for concurrent use.
type WorstCase struct {
	pis, pos int
	words    int      // words of the whole input space: 2^pis/64, at least 1
	chunk    int      // words per chunk: min(words, chunkWords)
	ref      []uint64 // reference output words, output-major: ref[o*words+w]

	// The circuit being simulated, flattened by load. Slot 0 is the
	// constant, slots 1..pis the inputs, then one slot per AND in
	// topological order; literals are slot<<1 | complement.
	gates []uint32 // fanin literal pairs: gate i writes slot 1+pis+i
	outs  []uint32 // output literals
	slot  []int32  // scratch: the slot of each variable
	val   []uint64 // scratch: one chunk of slot values, slot-major
	dev   []uint64 // scratch: the bit planes of one word's deviations
}

// NewWorstCase prepares the streamed evaluation of approximations of ref,
// which must have at most 30 inputs and 62 outputs; its cost is one
// simulation of ref over the whole input space.
func NewWorstCase(ref *aig.Graph) *WorstCase {
	if ref.NumPIs() > 30 || ref.NumPOs() > 62 {
		panic(fmt.Sprintf("sim: streamed worst case of %d inputs, %d outputs", ref.NumPIs(), ref.NumPOs()))
	}
	w := &WorstCase{pis: ref.NumPIs(), pos: ref.NumPOs(), words: max(1<<ref.NumPIs()/64, 1)}
	w.chunk = min(w.words, chunkWords)
	w.ref = make([]uint64, w.pos*w.words)
	w.dev = make([]uint64, w.pos)
	w.load(ref)
	for c := 0; c*w.chunk < w.words; c++ {
		w.simulate(c)
		for o, l := range w.outs {
			src, m := w.val[int(l>>1)*w.chunk:][:w.chunk], complMask(l&1 == 1)
			for j, x := range src {
				w.ref[o*w.words+c*w.chunk+j] = x ^ m
			}
		}
	}
	return w
}

// load flattens the live part of g, which must share ref's interface,
// into gates and outs, and sizes the value scratch.
func (w *WorstCase) load(g *aig.Graph) {
	if g.NumPIs() != w.pis || g.NumPOs() != w.pos {
		panic(fmt.Sprintf("sim: %d/%d inputs, %d/%d outputs", g.NumPIs(), w.pis, g.NumPOs(), w.pos))
	}
	if len(w.slot) < g.NumVars() {
		w.slot = make([]int32, g.NumVars()) // slot[0], the constant's, stays 0
	}
	slot := w.slot
	lit := func(l aig.Lit) uint32 { return uint32(slot[l.Var()])<<1 | uint32(l&1) }
	for i, v := range g.PIs() {
		slot[v] = int32(1 + i)
	}
	w.gates = w.gates[:0]
	next := int32(1 + w.pis)
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		w.gates = append(w.gates, lit(f0), lit(f1))
		slot[v] = next
		next++
	}
	w.outs = w.outs[:0]
	for _, l := range g.POs() {
		w.outs = append(w.outs, lit(l))
	}
	if n := int(next) * w.chunk; len(w.val) < n {
		w.val = make([]uint64, n) // slot 0, the constant, stays zero
	}
}

// simulate fills chunk c's input words and evaluates every loaded gate
// over them.
func (w *WorstCase) simulate(c int) {
	cw := w.chunk
	for i := range w.pis {
		fillEnum(i, w.val[(1+i)*cw:][:cw], c*cw)
	}
	gates := w.gates
	dst := (1 + w.pis) * cw
	for i := 0; i < len(gates); i += 2 {
		a, b := gates[i], gates[i+1]
		out := w.val[dst:][:cw]
		av, bv := w.val[int(a>>1)*cw:][:len(out)], w.val[int(b>>1)*cw:][:len(out)]
		ma, mb := complMask(a&1 == 1), complMask(b&1 == 1)
		for j := range out {
			out[j] = (av[j] ^ ma) & (bv[j] ^ mb)
		}
		dst += cw
	}
}

// Max returns the worst-case error of approx, which must share ref's
// interface, over every input — or, once some input's error exceeds
// limit, that error, at once. Either way the result is at most limit
// exactly when the worst case is. It checks ctx between chunks and
// returns ctx's error when it is done.
func (w *WorstCase) Max(ctx context.Context, approx *aig.Graph, limit uint64) (uint64, error) {
	w.load(approx)
	var worst uint64
	for c := 0; c*w.chunk < w.words; c++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		w.simulate(c)
		if worst = w.fold(c, worst, limit); worst > limit {
			break
		}
	}
	return worst, nil
}

// fold raises worst to the largest error in chunk c, stopping as soon as
// it exceeds limit. Every word is folded bit-sliced, 64 patterns at once:
// a ripple subtract approx − ref over the outputs whose final borrow is
// the sign, a conditional negate to |approx − ref| (K bits hold it), and a
// compare against worst that marks the patterns whose error is larger;
// only those are read out one by one. Patterns beyond 2^pis in a
// one-word space replay inputs below it (fillEnum's scheme), so no mask
// is needed.
func (w *WorstCase) fold(c int, worst, limit uint64) uint64 {
	dev := w.dev
	for j := range w.chunk {
		gw := c*w.chunk + j
		var borrow, diff uint64
		for o, l := range w.outs {
			a := w.val[int(l>>1)*w.chunk+j] ^ complMask(l&1 == 1)
			e := w.ref[o*w.words+gw]
			x := a ^ e
			dev[o] = x ^ borrow
			borrow = ^a&e | ^x&borrow
			diff |= x
		}
		if diff == 0 {
			continue
		}
		carry := borrow // two's complement of the negative lanes: (d ^ s) + s
		for o, d := range dev {
			x := d ^ borrow
			dev[o] = x ^ carry
			carry &= x
		}
		var gt uint64
		eq := ^uint64(0)
		for o := len(dev) - 1; o >= 0; o-- {
			if worst>>uint(o)&1 == 1 {
				eq &= dev[o]
			} else {
				gt |= eq & dev[o]
				eq &^= dev[o]
			}
		}
		for ; gt != 0; gt &= gt - 1 {
			lane := uint(bits.TrailingZeros64(gt))
			var v uint64
			for o, d := range dev {
				v |= (d >> lane & 1) << uint(o)
			}
			if v > worst {
				if worst = v; worst > limit {
					return worst
				}
			}
		}
	}
	return worst
}
