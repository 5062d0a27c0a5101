// Package oracle is the differential-verification subsystem behind the
// alscheck campaign (cmd/alscheck): exact ground-truth error metrics by
// exhaustive bit-parallel enumeration, cross-checks of every figure a
// synthesis run reports, randomized+metamorphic campaign execution with
// fault seeding (internal/fault), and greedy shrinking of failing cases
// into small AIGER repros.
//
// The oracle deliberately re-derives everything through an independent
// code path: Exact folds truth tables directly from simulator output and
// never touches metric.State's incremental bookkeeping, so a bug in the
// engine's bookkeeping cannot hide itself in the check.
package oracle

import (
	"fmt"
	"math"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// MaxPIs bounds exhaustive enumeration: 2^20 patterns ≈ 16k words per
// node vector — still fast bit-parallel work, while 2^24 would already
// cost seconds per circuit across a campaign.
const MaxPIs = 20

// Metrics holds the exactly enumerated error figures of an approximate
// circuit against its exact reference, over all 2^PIs input patterns.
type Metrics struct {
	Patterns int // 2^PIs

	ER  float64 // fraction of patterns with ≥1 wrong output
	MED float64 // mean |weighted deviation|
	MSE float64 // mean squared weighted deviation
	MHD float64 // mean number of wrong output bits

	// WCE is the worst-case error under the unsigned LSB-first output
	// interpretation — max over all inputs of |int(orig) − int(approx)|.
	// Valid only when WCEOK (≤ 62 outputs, so the integer fits int64).
	WCE   uint64
	WCEOK bool
}

// Get returns the enumerated value of kind k.
func (m Metrics) Get(k metric.Kind) float64 {
	switch k {
	case metric.ER:
		return m.ER
	case metric.MED:
		return m.MED
	case metric.MSE:
		return m.MSE
	case metric.MHD:
		return m.MHD
	case metric.WCE:
		// Meaningful only when WCEOK; callers on the WCE path guard on it.
		return float64(m.WCE)
	}
	panic("oracle: unknown metric kind")
}

// Exact enumerates all 2^PIs input patterns of orig and approx (same
// PI/PO interface, at most MaxPIs inputs) and returns every error metric
// exactly. weights may be nil, selecting the unsigned LSB-first default —
// the same default core.Run applies.
func Exact(orig, approx *aig.Graph, weights metric.Weights) (Metrics, error) {
	if orig.NumPIs() != approx.NumPIs() || orig.NumPOs() != approx.NumPOs() {
		return Metrics{}, fmt.Errorf("oracle: interface mismatch: %d/%d PIs, %d/%d POs",
			orig.NumPIs(), approx.NumPIs(), orig.NumPOs(), approx.NumPOs())
	}
	if orig.NumPIs() > MaxPIs {
		return Metrics{}, fmt.Errorf("oracle: %d PIs exceeds exhaustive limit %d", orig.NumPIs(), MaxPIs)
	}
	k := orig.NumPOs()
	if weights == nil {
		weights = metric.UnsignedWeights(k)
	}
	if len(weights) != k {
		return Metrics{}, fmt.Errorf("oracle: %d weights for %d POs", len(weights), k)
	}
	// A uniform budget of 2^PIs patterns: sim.New enumerates it.
	patterns := 1 << uint(orig.NumPIs())
	so := sim.Options{Patterns: patterns}
	se := sim.New(orig, so)
	sa := sim.New(approx, so)

	m := Metrics{Patterns: patterns, WCEOK: k <= 62}
	words := se.Words()
	ev, av, diff, any := bitvec.NewWords(words), bitvec.NewWords(words), bitvec.NewWords(words), bitvec.NewWords(words)
	// dev is the signed weighted deviation per pattern; dval the signed
	// integer deviation for WCE. Folding per-PO over only the set bits of
	// the xor keeps this O(#mismatches), like the engine's own bookkeeping
	// — but from scratch, with no shared state to inherit a bug from.
	dev := make([]float64, patterns)
	var dval []int64
	if m.WCEOK {
		dval = make([]int64, patterns)
	}
	mhdBits := 0
	for o := 0; o < k; o++ {
		se.POVal(o, ev)
		sa.POVal(o, av)
		diff.Xor(ev, av)
		mhdBits += diff.Count()
		any.OrWith(diff)
		w := weights[o]
		var unit int64
		if m.WCEOK {
			unit = int64(1) << uint(o)
		}
		avo := av
		diff.ForEach(func(i int) {
			if avo.Get(i) { // approx=1, exact=0
				dev[i] += w
				if dval != nil {
					dval[i] += unit
				}
			} else {
				dev[i] -= w
				if dval != nil {
					dval[i] -= unit
				}
			}
		})
	}
	x := float64(patterns)
	m.ER = float64(any.Count()) / x
	m.MHD = float64(mhdBits) / x
	sumAbs, sumSq := 0.0, 0.0
	for _, d := range dev {
		sumAbs += math.Abs(d)
		sumSq += d * d
	}
	m.MED = sumAbs / x
	m.MSE = sumSq / x
	if m.WCEOK {
		for _, d := range dval {
			if d < 0 {
				d = -d
			}
			if uint64(d) > m.WCE {
				m.WCE = uint64(d)
			}
		}
	}
	return m, nil
}

// SampledError recomputes, through metric.Compute (the from-scratch
// reference implementation), the error of approx against orig on exactly
// the patterns a core run with simOpt would train on. Both graphs must
// share the PI interface: the simulator draws PI patterns per input index
// from one seeded stream, so equal PI counts and equal options give both
// simulations bit-identical inputs.
func SampledError(orig, approx *aig.Graph, kind metric.Kind, weights metric.Weights, simOpt sim.Options) (float64, error) {
	if orig.NumPIs() != approx.NumPIs() || orig.NumPOs() != approx.NumPOs() {
		return 0, fmt.Errorf("oracle: interface mismatch: %d/%d PIs, %d/%d POs",
			orig.NumPIs(), approx.NumPIs(), orig.NumPOs(), approx.NumPOs())
	}
	if weights == nil && kind.Numeric() {
		weights = metric.UnsignedWeights(orig.NumPOs())
	}
	se := sim.New(orig, simOpt)
	sa := sim.New(approx, simOpt)
	exact := make([]bitvec.Vec, orig.NumPOs())
	approxV := make([]bitvec.Vec, orig.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(se.Words())
		approxV[o] = bitvec.NewWords(sa.Words())
		se.POVal(o, exact[o])
		sa.POVal(o, approxV[o])
	}
	return metric.Compute(kind, weights, exact, approxV, se.Patterns()), nil
}
