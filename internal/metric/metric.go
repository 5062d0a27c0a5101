// Package metric implements the statistical error metrics of the paper —
// error rate (ER), mean squared error (MSE) and mean error distance (MED) —
// over a set of simulated input patterns.
//
// A State tracks, per pattern, the deviation of the current approximate
// circuit from the exact reference: a signed numeric deviation for MSE/MED
// and a PO-mismatch count for ER. Candidate LACs are evaluated without
// touching the circuit: given each LAC's value-change mask D and the
// target's CPM row, State.ScoreBatch folds the new errors of all of a
// target's candidates from only the flipped (pattern, PO) pairs, in one
// pass over the row. This makes a single-LAC estimate exact with respect
// to the sampled patterns — the property the dual-phase framework relies
// on (papers [19], [20]).
package metric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"dpals/internal/bitvec"
)

// Kind selects the error metric.
type Kind int

// Supported metrics.
const (
	ER  Kind = iota // error rate: fraction of patterns with any wrong output
	MSE             // mean squared numeric error
	MED             // mean absolute numeric error (error distance)
	MHD             // mean Hamming distance: average number of wrong output bits
	WCE             // worst-case numeric error: max |approx − exact| over patterns
)

func (k Kind) String() string {
	switch k {
	case ER:
		return "ER"
	case MSE:
		return "MSE"
	case MED:
		return "MED"
	case MHD:
		return "MHD"
	case WCE:
		return "WCE"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Numeric reports whether the metric interprets outputs as a weighted
// number (and therefore requires Weights).
func (k Kind) Numeric() bool { return k == MSE || k == MED || k == WCE }

// Weights assigns a numeric weight to each primary output for MSE/MED.
// ER ignores weights.
type Weights []float64

// UnsignedWeights interprets n outputs as an unsigned binary number,
// LSB first: weight of output i is 2^i.
func UnsignedWeights(n int) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = math.Ldexp(1, i)
	}
	return w
}

// TwosComplementWeights interprets n outputs as a two's-complement number,
// LSB first: the MSB carries weight −2^(n−1).
func TwosComplementWeights(n int) Weights {
	w := UnsignedWeights(n)
	if n > 0 {
		w[n-1] = -w[n-1]
	}
	return w
}

// SumsExactly reports whether every weight is an integer and Σ|w| < 2^53.
// Then every weighted deviation, and every partial sum of one, is an
// integer that float64 holds exactly, in any order of summation.
func (w Weights) SumsExactly() bool {
	sum := 0.0
	for _, x := range w {
		if x != math.Trunc(x) {
			return false
		}
		sum += math.Abs(x)
	}
	return sum < 1<<53
}

// ReferenceError returns the paper's reference error R = 2^(K/3) for a
// circuit with K outputs; MED thresholds are multiples of R and MSE
// thresholds multiples of R².
func ReferenceError(k int) float64 { return math.Pow(2, float64(k)/3) }

// Thresholds returns the paper's three error budgets {low, median, high}
// for a metric on a circuit with k outputs: ER {0.1%, 1%, 2%}, MSE
// {R²/2, R², 2R²} and {R/2, R, 2R} otherwise, with R = ReferenceError(k).
func Thresholds(kind Kind, k int) []float64 {
	R := ReferenceError(k)
	switch kind {
	case ER:
		return []float64{0.001, 0.01, 0.02}
	case MSE:
		return []float64{0.5 * R * R, R * R, 2 * R * R}
	default:
		return []float64{0.5 * R, R, 2 * R}
	}
}

// ReferenceWCEBound is the reference worst-case error budget for a circuit
// with k outputs: ReferenceError(k) rounded down, at least 1.
func ReferenceWCEBound(k int) uint64 { return max(uint64(ReferenceError(k)), 1) }

// MaxDeviation returns the largest value the per-pattern contribution of
// the metric can take for a circuit with numPOs outputs: 1 for ER (a
// pattern either mismatches or not), numPOs for MHD, Σ|w| for MED, and
// (Σ|w|)² for MSE. This is the range that makes Hoeffding's inequality
// applicable to the Monte-Carlo estimate, which is the mean of n
// independent per-pattern contributions bounded in [0, MaxDeviation].
func MaxDeviation(kind Kind, weights Weights, numPOs int) float64 {
	switch kind {
	case ER:
		return 1
	case MHD:
		return float64(numPOs)
	}
	sum := 0.0
	for _, w := range weights {
		sum += math.Abs(w)
	}
	if kind == MSE {
		return sum * sum
	}
	return sum
}

// HoeffdingDelta returns the deviation t such that a mean of n independent
// samples bounded in [0, rang] differs from its expectation by more than t
// with probability at most alpha: t = rang·√(ln(2/alpha)/(2n)). The oracle
// cross-check uses it to bound how far a Monte-Carlo metric estimate may
// legitimately sit from the exhaustively enumerated exact value; a larger
// gap is a miscounting bug, not sampling noise.
func HoeffdingDelta(rang float64, n int, alpha float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return rang * math.Sqrt(math.Log(2/alpha)/(2*float64(n)))
}

// State tracks the error of an evolving approximate circuit against a fixed
// exact reference. Candidate evaluation (ScoreBatch) only reads the state
// and keeps its scratch on the stack or in caller-owned buffers, so any
// number of goroutines may evaluate concurrently as long as none mutates
// the state (CommitPO) meanwhile.
//
// For change-driven scoring (see Fold) a State carries a process-unique id
// and a clock: CommitPO advances the clock and stamps every 64-pattern
// word whose current bits it changes, so stamp[w] ≤ c says that word w's
// per-pattern state (cur, dev, mism) is what it was at clock c. A rebuilt
// State (a rollback) gets a new id, so no fold written against its
// predecessor ever matches it.
type State struct {
	kind     Kind
	weights  Weights
	patterns int
	words    int

	exact []bitvec.Vec // reference PO words
	cur   []bitvec.Vec // current approximate PO words

	dev  []float64 // per pattern: approx − exact (MSE/MED)
	mism []int32   // per pattern: number of mismatching POs (ER/MHD)

	errSum   float64 // MSE: Σ dev²; MED: Σ |dev|
	errCount int     // ER: patterns with ≥1 mismatching PO
	mismSum  int64   // MHD: Σ mism

	// wceMax caches max |dev| over all patterns for WCE. CommitPO keeps it
	// current (rescanning when a pattern at the max shrinks), so Error stays
	// a pure read and concurrent evaluation remains safe.
	wceMax   float64
	wceDirty bool

	id    uint64   // process-unique, never 0
	clock uint64   // advanced by every CommitPO
	stamp []uint64 // per word: clock of the last CommitPO that changed it
	// foldExact: every score is a sum (or max) that comes out the same in
	// any order, so ScoreBatch may reuse a Fold's per-word terms.
	foldExact bool
}

// stateIDs hands out State ids.
var stateIDs atomic.Uint64

// NewState builds the tracking state. exact are the reference PO value
// vectors (one per PO, in PO order); the approximate circuit is assumed to
// start identical to the reference. weights may be nil for ER.
func NewState(kind Kind, exact []bitvec.Vec, weights Weights, patterns int) *State {
	if kind.Numeric() && len(weights) != len(exact) {
		panic("metric: weights must match PO count for numeric metrics")
	}
	words := 0
	if len(exact) > 0 {
		words = len(exact[0])
	}
	st := &State{
		kind:     kind,
		weights:  weights,
		patterns: patterns,
		words:    words,
		exact:    make([]bitvec.Vec, len(exact)),
		cur:      make([]bitvec.Vec, len(exact)),
		dev:      make([]float64, patterns),
		mism:     make([]int32, patterns),
		id:       stateIDs.Add(1),
		stamp:    make([]uint64, words),
	}
	st.foldExact = foldsExactly(kind, weights, len(exact), patterns)
	for i, e := range exact {
		st.exact[i] = e.Clone()
		st.cur[i] = e.Clone()
	}
	return st
}

// Kind returns the tracked metric.
func (st *State) Kind() Kind { return st.kind }

// Patterns returns the number of tracked patterns.
func (st *State) Patterns() int { return st.patterns }

// Weights returns the numeric PO weights (nil for ER/MHD without weights).
func (st *State) Weights() Weights { return st.weights }

// Error returns the current error of the approximate circuit. For WCE it
// is the maximum deviation over the patterns — a lower bound on the true
// worst case, which is why the WCE flow pairs it with a certificate. On
// enumerated patterns with weights that sum exactly it is the true worst
// case.
func (st *State) Error() float64 {
	x := float64(st.patterns)
	switch st.kind {
	case ER:
		return float64(st.errCount) / x
	case MHD:
		return float64(st.mismSum) / x
	case WCE:
		return st.wceMax
	default:
		return st.errSum / x
	}
}

// flipDelta returns the deviation delta caused by flipping PO o in a
// pattern whose current bit value is curBit.
func (st *State) flipDelta(o int, curBit bool) float64 {
	if curBit {
		return -st.weights[o]
	}
	return st.weights[o]
}

// Operands is a candidate LAC's value-change mask in unmaterialised form:
// the target's value flips exactly on the set bits of A ⊕ B ⊕ Inv, where
// Inv is a word-level complement mask (zero or all-ones) and a nil B
// stands for the all-zero vector (constant replacement). Scoring needs no
// scratch diff vector at all. Padding bits that Inv turns on past the
// pattern count never contribute: the CPM row vectors they are ANDed
// with are masked.
type Operands struct {
	A, B bitvec.Vec
	Inv  uint64
}

// foldsExactly reports whether every score of a State of this kind, whose
// per-pattern terms ScoreBatch sums (or maxes) into it, is the same in any
// order of summation, so that a score assembled from per-word partial
// sums, some of them reused from a Fold, equals the sequential one bit for
// bit. WCE is a max, ER and MHD count integers. MSE and MED need integer
// terms, which SumsExactly gives, and every partial sum below 2^53: each
// is the current error sum plus some terms, both at most patterns ×
// MaxDeviation in magnitude, and one more bit of headroom absorbs the
// rounding of MaxDeviation itself.
func foldsExactly(kind Kind, weights Weights, numPOs, patterns int) bool {
	switch kind {
	case ER, MHD, WCE:
		return true
	}
	return weights.SumsExactly() && 2*float64(patterns)*MaxDeviation(kind, weights, numPOs) < 1<<52
}

// Fold is the fold record of one scoring target: the inputs ScoreBatch
// folded for it last time, and the term each candidate slot got from
// each 64-pattern word, so that the next call re-folds only the words
// whose inputs changed. A term depends only on the row, the error state
// and the slot's mask on its word, so word w of slot c reuses its stored
// term when all of these still hold:
//
//   - error state: the record was written against this State, and word w
//     has not changed since (its stamp is at most the record's clock);
//   - row: the row's PO list is the stored one, and every diff word at w
//     equals the stored copy — a content compare, so rows carry no
//     versions, and a row corrupted in place is re-folded;
//   - mask: the slot's mask word (A ⊕ B ⊕ Inv) equals the stored one, so a
//     reordered candidate list still reuses whatever matches.
//
// A record is used only on States whose scores sum exactly in any order
// (foldsExactly); elsewhere ScoreBatch ignores it. The zero value is an
// empty record. A Fold is owned by one target and is not safe for
// concurrent use.
type Fold struct {
	state, clock uint64    // the State that wrote the record, and its clock then
	pos          []int32   // the row's PO list
	row          []uint64  // the row's diff words, word-major: [w*len(pos)+i]
	masks        []uint64  // per word and slot, word-major: [w*slots+c]
	terms        []float64 // the term each mask word folded to, like masks
}

// Reset empties the record, keeping its buffers.
func (f *Fold) Reset() { f.state = 0 }

// prepare sizes the record for a call on st with the given row PO list
// and slot count, and reports whether its stored words may be reused: it
// was written against st, for the same PO list and slot count.
func (f *Fold) prepare(st *State, pos []int32, slots int) bool {
	if f.state == st.id && slices.Equal(f.pos, pos) && len(f.masks) == slots*st.words {
		return true
	}
	f.pos = append(f.pos[:0], pos...)
	f.row = resize(f.row, len(pos)*st.words)
	f.masks = resize(f.masks, slots*st.words)
	f.terms = resize(f.terms, slots*st.words)
	return false
}

// sameRow reports whether the stored copy of word wi of the row equals
// diffs, and updates the copy.
func (f *Fold) sameRow(diffs []bitvec.Vec, wi int) bool {
	same := true
	row := f.row[wi*len(diffs) : (wi+1)*len(diffs)]
	for ri, d := range diffs {
		if x := d[wi]; row[ri] != x {
			row[ri], same = x, false
		}
	}
	return same
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ScoreBatch scores every candidate LAC of one target: out[c] is the
// error the circuit would have after the LAC whose value-change mask is
// ops[c], given the target's change propagation row: diffs[i] holds the
// patterns on which a flip of the target flips PO pos[i]. out and masks
// (the per-call scratch) must hold at least len(ops) entries. The circuit
// state is unchanged, and concurrent calls with distinct out, masks and
// folds are safe. Row PO indices must be unique — guaranteed for rows
// built by package cpm, whose cut elements partition the reachable POs.
//
// A LAC flips its target on a pattern wholesale or not at all, and where
// it does, the POs that flip are the row's, whichever the candidate. So
// each pattern's delta, and the term it adds to the error, depend only on
// the row and the state; a candidate only selects which terms it sums.
// The kernel therefore walks the row once, one 64-pattern word at a time,
// under the union of the candidates' mask words. The flips of every row
// PO add ±w_o (MSE/MED/WCE; subtracted where the current bit is set) or
// ±1 (ER/MHD; subtracted on a disagreeing bit, whose flip removes a
// mismatch) to a stack array of per-pattern deltas, in row-PO order.
// Each touched pattern's term is then computed once into g: nd² − dev²
// (MSE), |nd| − |dev| (MED), the delta itself (MHD) or |nd| (WCE). Each
// candidate folds the terms of its own touched patterns, in ascending
// order, into a local that stays in a register, summed from
// errSum/mismSum, or for WCE maxed from wceMax. ER's term, the change of
// the mismatch indicator, is +1 or −1 on two masks of the word's
// patterns and 0 elsewhere, so its fold is two popcounts added to
// errCount; integer sums are exact in float64, so this equals any order.
// Touched patterns are scored exactly and untouched ones are bounded by
// the current max, so WCE yields an upper bound on the post-apply
// sampled max.
//
// Each score is therefore the same floating-point operations, in the same
// order, as folding that candidate alone, so a score never depends on its
// batch. WCE (a max) does not depend on the fold order at all, and
// neither do MSE and MED while every partial sum is an integer below
// 2^53 — true for the unsigned and two's-complement weights. Other
// weights round in this fixed order, so results are still identical at
// every thread count.
//
// With a non-nil fold record f, on a State whose scores sum exactly in
// any order, each slot's term of each word is folded separately, stored
// in f and added to its score, and a slot whose word is unchanged since f
// was written (see Fold) adds its stored term instead: only the dirty
// slots form the word's union, and a word with none is skipped outright.
// The scores are bit-identical to a nil-fold call. reused and refolded
// count the nonzero (slot, word) mask words served from f and folded
// afresh; a nil f, or a State whose sums depend on their order, runs the
// sequential fold above and counts nothing.
func (st *State) ScoreBatch(pos []int32, diffs []bitvec.Vec, ops []Operands, out []float64, masks []uint64, f *Fold) (reused, refolded int) {
	if len(ops) == 0 {
		return 0, 0
	}
	out, masks = out[:len(ops)], masks[:len(ops)]
	if !st.foldExact {
		f = nil
	}
	keep := f != nil && f.prepare(st, pos, len(ops))
	start := st.errSum
	switch st.kind {
	case ER:
		start = float64(st.errCount)
	case MHD:
		start = float64(st.mismSum)
	case WCE:
		start = st.wceMax
	}
	for c := range out {
		out[c] = start
	}
	var delta, g [64]float64 // MSE/MED/WCE: deviation deltas; terms
	var dm [64]int32         // ER/MHD: mismatch deltas
	for wi := 0; wi < st.words; wi++ {
		// With a fold, a clean slot adds its stored term and drops out of
		// the union (mask 0); a dirty one stores its mask and a zero term,
		// which the fold below overwrites if the slot touches a pattern.
		var u uint64
		var reuse bool
		var fm []uint64
		var ft []float64
		if f != nil {
			reuse = f.sameRow(diffs, wi) && keep && st.stamp[wi] <= f.clock
			fm, ft = f.masks[wi*len(ops):(wi+1)*len(ops)], f.terms[wi*len(ops):(wi+1)*len(ops)]
		}
		for c, op := range ops {
			d := op.A[wi] ^ op.Inv
			if op.B != nil {
				d ^= op.B[wi]
			}
			switch {
			case f == nil:
			case reuse && fm[c] == d:
				if d != 0 {
					reused++
					out[c] = st.combine(out[c], ft[c])
					d = 0
				}
			default:
				fm[c], ft[c] = d, 0
				if d != 0 {
					refolded++
				}
			}
			masks[c] = d
			u |= d
		}
		if u == 0 {
			continue
		}
		var touched uint64
		if !st.kind.Numeric() {
			for ri, o := range pos {
				w := u & diffs[ri][wi]
				if w == 0 {
					continue
				}
				touched |= w
				disagree := st.cur[o][wi] ^ st.exact[o][wi]
				for m := w &^ disagree; m != 0; m &= m - 1 {
					dm[bits.TrailingZeros64(m)]++
				}
				for m := w & disagree; m != 0; m &= m - 1 {
					dm[bits.TrailingZeros64(m)]--
				}
			}
		} else {
			for ri, o := range pos {
				w := u & diffs[ri][wi]
				if w == 0 {
					continue
				}
				touched |= w
				wo, cur := st.weights[o], st.cur[o][wi]
				for m := w &^ cur; m != 0; m &= m - 1 {
					delta[bits.TrailingZeros64(m)] += wo
				}
				for m := w & cur; m != 0; m &= m - 1 {
					delta[bits.TrailingZeros64(m)] -= wo
				}
			}
		}
		if touched == 0 {
			continue
		}
		dev, mism := st.dev[wi<<6:], st.mism[wi<<6:]
		switch st.kind {
		case ER:
			// A term is +1 (up) or −1 (down) where the pattern's mismatch
			// indicator changes and 0 elsewhere, so each candidate's fold
			// is two popcounts.
			var up, down uint64
			for t := touched; t != 0; t &= t - 1 {
				i := bits.TrailingZeros64(t)
				if was, now := mism[i] > 0, mism[i]+dm[i] > 0; was != now {
					if now {
						up |= 1 << i
					} else {
						down |= 1 << i
					}
				}
				dm[i] = 0
			}
			for c, d := range masks {
				x := float64(bits.OnesCount64(d&up) - bits.OnesCount64(d&down))
				if f != nil && d != 0 {
					ft[c] = x
				}
				out[c] += x
			}
			continue
		case MHD:
			for t := touched; t != 0; t &= t - 1 {
				i := bits.TrailingZeros64(t)
				g[i], dm[i] = float64(dm[i]), 0
			}
		case MSE:
			for t := touched; t != 0; t &= t - 1 {
				i := bits.TrailingZeros64(t)
				nd := dev[i] + delta[i]
				g[i], delta[i] = nd*nd-dev[i]*dev[i], 0
			}
		case MED:
			for t := touched; t != 0; t &= t - 1 {
				i := bits.TrailingZeros64(t)
				nd := dev[i] + delta[i]
				g[i], delta[i] = math.Abs(nd)-math.Abs(dev[i]), 0
			}
		case WCE:
			for t := touched; t != 0; t &= t - 1 {
				i := bits.TrailingZeros64(t)
				g[i], delta[i] = math.Abs(dev[i]+delta[i]), 0
			}
		}
		for c, d := range masks {
			m := d & touched
			if m == 0 {
				continue
			}
			// With a fold the word's term is folded on its own, stored,
			// then added; without one the score folds in place.
			acc := out[c]
			if f != nil {
				acc = 0
			}
			if st.kind == WCE {
				for ; m != 0; m &= m - 1 {
					if x := g[bits.TrailingZeros64(m)]; x > acc {
						acc = x
					}
				}
			} else {
				for ; m != 0; m &= m - 1 {
					acc += g[bits.TrailingZeros64(m)]
				}
			}
			if f != nil {
				ft[c] = acc
				acc = st.combine(out[c], acc)
			}
			out[c] = acc
		}
	}
	if f != nil {
		f.state, f.clock = st.id, st.clock
	}
	if st.kind != WCE {
		x := float64(st.patterns)
		for c := range out {
			out[c] /= x
		}
	}
	return reused, refolded
}

// combine adds a word's term to a score: the larger of the two for WCE,
// their sum otherwise.
func (st *State) combine(score, term float64) float64 {
	if st.kind == WCE {
		return max(score, term)
	}
	return score + term
}

// CommitPO records that PO o's value vector is now newVal, updating the
// per-pattern state incrementally from the changed bits. It advances the
// clock and stamps every word it changes.
func (st *State) CommitPO(o int, newVal bitvec.Vec) {
	curW := st.cur[o]
	exW := st.exact[o]
	st.clock++
	for wi := 0; wi < st.words; wi++ {
		d := curW[wi] ^ newVal[wi]
		if d == 0 {
			continue
		}
		st.stamp[wi] = st.clock
		base := wi << 6
		cw, ew := curW[wi], exW[wi]
		for d != 0 {
			bit := bits.TrailingZeros64(d)
			i := base + bit
			curBit := cw>>uint(bit)&1 != 0
			exBit := ew>>uint(bit)&1 != 0
			if st.kind == ER || st.kind == MHD {
				was := st.mism[i] > 0
				if curBit == exBit {
					st.mism[i]++
					st.mismSum++
				} else {
					st.mism[i]--
					st.mismSum--
				}
				now := st.mism[i] > 0
				if was && !now {
					st.errCount--
				} else if !was && now {
					st.errCount++
				}
			} else {
				old := st.dev[i]
				st.dev[i] += st.flipDelta(int(o), curBit)
				switch st.kind {
				case MSE:
					st.errSum += st.dev[i]*st.dev[i] - old*old
				case WCE:
					if na := math.Abs(st.dev[i]); na >= st.wceMax {
						st.wceMax = na
					} else if math.Abs(old) == st.wceMax {
						st.wceDirty = true
					}
				default:
					st.errSum += math.Abs(st.dev[i]) - math.Abs(old)
				}
			}
			d &= d - 1
		}
		curW[wi] = newVal[wi]
	}
	if st.wceDirty {
		// A pattern that carried the max shrank; rescan. Done here (not
		// lazily in Error) so Error stays read-only under concurrent
		// evaluation.
		st.wceDirty = false
		m := 0.0
		for _, dv := range st.dev {
			if a := math.Abs(dv); a > m {
				m = a
			}
		}
		st.wceMax = m
	}
}

// Compute evaluates the metric from scratch between two full sets of PO
// words — the reference implementation used for validation and tests.
func Compute(kind Kind, weights Weights, exact, approx []bitvec.Vec, patterns int) float64 {
	if len(exact) != len(approx) {
		panic("metric: PO count mismatch")
	}
	x := float64(patterns)
	switch kind {
	case ER:
		cnt := 0
		for i := 0; i < patterns; i++ {
			for o := range exact {
				if exact[o].Get(i) != approx[o].Get(i) {
					cnt++
					break
				}
			}
		}
		return float64(cnt) / x
	case MHD:
		bits := 0
		for o := range exact {
			bits += bitvec.XorCount(exact[o], approx[o])
		}
		return float64(bits) / x
	default:
		sum := 0.0
		maxAbs := 0.0
		for i := 0; i < patterns; i++ {
			dev := 0.0
			for o := range exact {
				e := exact[o].Get(i)
				a := approx[o].Get(i)
				if e != a {
					if a {
						dev += weights[o]
					} else {
						dev -= weights[o]
					}
				}
			}
			switch kind {
			case MSE:
				sum += dev * dev
			case WCE:
				if a := math.Abs(dev); a > maxAbs {
					maxAbs = a
				}
			default:
				sum += math.Abs(dev)
			}
		}
		if kind == WCE {
			return maxAbs
		}
		return sum / x
	}
}
