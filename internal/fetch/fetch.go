// Package fetch assigns fetching factors to the chunked services of a
// query plan (§4.3 and §5.3.1 of Braga et al., VLDB 2008): the number
// of chunk requests each chunked service performs per input tuple,
// chosen so that the plan produces at least k answers at minimal
// cost.
//
// The package provides the two initialization heuristics of §4.3.1
// ("greedy" and "square is better"), the closed forms of Eq. 5–7 for
// one or two chunked services, and an exhaustive exploration of the
// fetch-vector space pruned by domination (§4.3.2).
package fetch

import (
	"fmt"
	"math"
	"sort"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/plan"
)

// Heuristic selects the initial assignment strategy of §4.3.1.
type Heuristic int

// Heuristics.
const (
	// Greedy starts from all-ones and repeatedly increments the
	// fetching factor with the highest sensitivity (output tuples
	// gained per unit of cost) until k answers are reached. It finds
	// a local optimum, which is global when the space is convex.
	Greedy Heuristic = iota
	// Square ("square is better") grows all factors together so that
	// every chunked service explores about the same number of
	// tuples, suiting quickly decaying rankings.
	Square
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case Greedy:
		return "greedy"
	case Square:
		return "square"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Result reports the outcome of a fetch assignment.
type Result struct {
	// Feasible is false when no assignment reaches k answers (for
	// instance because decay caps the useful fetches, §4.3.2).
	Feasible bool
	// Vector holds the assigned factor per chunked node, in plan
	// ChunkedNodes order.
	Vector []int
	// TOut is the estimated result size under the assignment.
	TOut float64
	// Cost is the plan cost under the assignment.
	Cost float64
	// Explored counts the fetch vectors evaluated.
	Explored int
}

// Assigner computes fetch factors for plans.
type Assigner struct {
	// Estimator provides cardinality annotation (cache model and
	// selectivities).
	Estimator card.Config
	// Metric is minimized; nil means cost.ExecTime.
	Metric cost.Metric
	// K is the desired number of answers.
	K int
	// Heuristic provides the initial upper bound; default Greedy.
	Heuristic Heuristic
	// MaxExplore caps the vectors evaluated during exhaustive
	// exploration; 0 means 100000. When exceeded, the best solution
	// found so far is returned.
	MaxExplore int
}

func (a *Assigner) metric() cost.Metric {
	if a.Metric == nil {
		return cost.ExecTime{}
	}
	return a.Metric
}

func (a *Assigner) maxExplore() int {
	if a.MaxExplore <= 0 {
		return 100000
	}
	return a.MaxExplore
}

// setVector installs a fetch vector and re-annotates the compiled
// plan, returning the estimated result size.
func setVector(cp *card.Compiled, nodes []*plan.Node, v []int) float64 {
	for i, n := range nodes {
		n.Fetches = v[i]
	}
	return cp.Annotate()
}

// maxFetchBound caps any fetching factor: beyond it a plan is
// treated as unable to reach k (prevents unbounded exploration when
// selectivity estimates make k practically unreachable).
const maxFetchBound = 1 << 16

// capFor returns the decay-implied fetch cap for a node, bounded by
// maxFetchBound.
func capFor(n *plan.Node) int {
	if m := n.Atom.Sig.Statistics().MaxFetches(); m > 0 && m < maxFetchBound {
		return m
	}
	return maxFetchBound
}

// Assign computes the optimal fetch vector for the plan under the
// configured metric and installs it (mutating the plan's chunked
// nodes and annotations). If the plan has no chunked service the
// plan is annotated and returned as trivially feasible when its
// estimated output reaches k. The plan is compiled once (see
// card.Compiled) and every fetch vector is priced against that one
// compilation.
func (a *Assigner) Assign(p *plan.Plan) Result {
	nodes := p.ChunkedNodes()
	if len(nodes) == 0 {
		tout := a.Estimator.Annotate(p)
		return Result{
			Feasible: tout >= float64(a.K),
			TOut:     tout,
			Cost:     a.metric().Cost(p),
			Explored: 1,
		}
	}

	cp := a.Estimator.Compile(p)
	// §4.3.2: if the all-ones vector already yields k results it is
	// optimal (costs are monotone in every factor).
	ones := make([]int, len(nodes))
	for i := range ones {
		ones[i] = 1
	}
	tout := setVector(cp, nodes, ones)
	if tout >= float64(a.K) {
		return Result{Feasible: true, Vector: ones, TOut: tout, Cost: a.metric().Cost(p), Explored: 1}
	}

	// Fast infeasibility check: t_out is monotone in every factor, so
	// if even the cap vector cannot reach k, nothing can.
	capVec := make([]int, len(nodes))
	for i, n := range nodes {
		capVec[i] = capFor(n)
	}
	if setVector(cp, nodes, capVec) < float64(a.K) {
		best := a.maxVector(nodes)
		tout := setVector(cp, nodes, best)
		return Result{Feasible: false, Vector: best, TOut: tout, Cost: a.metric().Cost(p), Explored: 2}
	}

	// Heuristic initial solution = upper bound.
	var init []int
	var explored int
	switch a.Heuristic {
	case Square:
		init, explored = a.square(cp, nodes)
	default:
		init, explored = a.greedy(p, cp, nodes)
	}
	if init == nil {
		// Decay caps make k unreachable (§4.3.2: "small upper bounds
		// determined by decays may sometimes even mean that k answers
		// can never be reached").
		best := a.maxVector(nodes)
		tout := setVector(cp, nodes, best)
		return Result{Feasible: false, Vector: best, TOut: tout, Cost: a.metric().Cost(p), Explored: explored}
	}

	best, cost0, visited := a.explore(p, cp, nodes, init)
	tout = setVector(cp, nodes, best)
	return Result{
		Feasible: true,
		Vector:   best,
		TOut:     tout,
		Cost:     cost0,
		Explored: explored + visited,
	}
}

// maxVector returns the decay-capped maximal vector (for reporting
// infeasibility).
func (a *Assigner) maxVector(nodes []*plan.Node) []int {
	v := make([]int, len(nodes))
	for i, n := range nodes {
		if m := n.Atom.Sig.Statistics().MaxFetches(); m > 0 && m < maxFetchBound {
			v[i] = m
		} else {
			v[i] = 1
		}
	}
	return v
}

// greedy implements the greedy heuristics of §4.3.1: repeatedly
// increment the factor with the highest marginal tuples-per-cost
// gain until the estimated output reaches k. Returns nil if capped
// out before reaching k.
func (a *Assigner) greedy(p *plan.Plan, cp *card.Compiled, nodes []*plan.Node) ([]int, int) {
	v := make([]int, len(nodes))
	for i := range v {
		v[i] = 1
	}
	explored := 1
	tout := setVector(cp, nodes, v)
	curCost := a.metric().Cost(p)
	// step accelerates geometrically when k is far away (the paper's
	// unit increments are kept while the target is near), so the
	// heuristic terminates quickly even when selectivities put k many
	// thousands of fetches away.
	step := 1
	for tout < float64(a.K) {
		if explored > a.maxExplore() {
			setVector(cp, nodes, v)
			return nil, explored
		}
		bestIdx := -1
		bestGain := -1.0
		bestTOut, bestCost := 0.0, 0.0
		for i, n := range nodes {
			inc := step
			if v[i]+inc > capFor(n) {
				inc = capFor(n) - v[i]
			}
			if inc <= 0 {
				continue
			}
			v[i] += inc
			t := setVector(cp, nodes, v)
			c := a.metric().Cost(p)
			explored++
			dc := c - curCost
			if dc <= 0 {
				dc = 1e-9
			}
			gain := (t - tout) / dc
			if gain > bestGain {
				bestGain, bestIdx = gain, i
				bestTOut, bestCost = t, c
			}
			v[i] -= inc
		}
		if bestIdx < 0 {
			setVector(cp, nodes, v)
			return nil, explored
		}
		inc := step
		if v[bestIdx]+inc > capFor(nodes[bestIdx]) {
			inc = capFor(nodes[bestIdx]) - v[bestIdx]
		}
		v[bestIdx] += inc
		tout, curCost = bestTOut, bestCost
		if bestTOut > 0 && float64(a.K)/bestTOut > 2 {
			step *= 2
		} else {
			step = 1
		}
	}
	return v, explored
}

// square implements "square is better" (§4.3.1): all factors grow
// together so that F_i·cs_i (tuples explored per service) stays
// roughly equal across chunked services.
func (a *Assigner) square(cp *card.Compiled, nodes []*plan.Node) ([]int, int) {
	minChunk := math.MaxInt
	for _, n := range nodes {
		if cs := n.Atom.Sig.Statistics().ChunkSize; cs < minChunk {
			minChunk = cs
		}
	}
	explored := 0
	v := make([]int, len(nodes))
	for round := 1; ; round++ {
		target := round * minChunk // tuples each service should explore
		capped := true
		for i, n := range nodes {
			cs := n.Atom.Sig.Statistics().ChunkSize
			f := (target + cs - 1) / cs
			if f < 1 {
				f = 1
			}
			if c := capFor(n); f > c {
				f = c
			} else {
				capped = false
			}
			v[i] = f
		}
		tout := setVector(cp, nodes, v)
		explored++
		if tout >= float64(a.K) {
			return v, explored
		}
		if capped {
			return nil, explored
		}
		if explored > a.maxExplore() {
			return nil, explored
		}
	}
}

// explore searches the fetch-vector space seeded with the heuristic
// solution as upper bound (§4.3.2). Soundness rests on domination:
// costs and t_out are monotone in every coordinate, so
//
//   - a coordinate never needs to exceed the smallest value that
//     makes the plan feasible with all other coordinates at 1 (the
//     paper's F_max bound);
//   - a prefix whose optimistic completion (remaining coordinates at
//     1) costs more than the incumbent cannot improve on it;
//   - the final coordinate's optimum given a prefix is the minimal
//     feasible value (found by binary search).
//
// Coordinates are enumerated smallest-range first. Ranges are
// enumerated exactly up to exploreExact values; beyond that a
// geometric grid is used (documented approximation — real top-k
// workloads have fetch factors far below the threshold, and the
// brute-force comparison tests stay in the exact regime).
func (a *Assigner) explore(p *plan.Plan, cp *card.Compiled, nodes []*plan.Node, init []int) ([]int, float64, int) {
	metric := a.metric()
	best := append([]int(nil), init...)
	setVector(cp, nodes, best)
	bestCost := metric.Cost(p)
	visited := 0

	v := make([]int, len(nodes))
	setRest := func(order []int, from int, val int) {
		for j := from; j < len(order); j++ {
			v[order[j]] = val
		}
	}

	// fMax per coordinate: minimal value reaching k with all others
	// at 1 (feasible by the cap pre-check in Assign when searched
	// alone may still fail; fall back to the cap).
	fMax := make([]int, len(nodes))
	for i, n := range nodes {
		for j := range v {
			v[j] = 1
		}
		lim := capFor(n)
		f, ok := a.minFeasible(cp, nodes, v, i, lim)
		visited += bitsFor(lim)
		if !ok {
			f = lim
		}
		fMax[i] = f
	}

	// Iterate coordinates in increasing range; binary-search the last.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if fMax[order[x]] != fMax[order[y]] {
			return fMax[order[x]] < fMax[order[y]]
		}
		return order[x] < order[y]
	})

	var rec func(oi int)
	rec = func(oi int) {
		if visited > a.maxExplore() {
			return
		}
		idx := order[oi]
		if oi == len(order)-1 {
			f, ok := a.minFeasible(cp, nodes, v, idx, capFor(nodes[idx]))
			visited += bitsFor(capFor(nodes[idx]))
			if !ok {
				return
			}
			v[idx] = f
			setVector(cp, nodes, v)
			c := metric.Cost(p)
			if c < bestCost || (c == bestCost && lexLess(v, best)) {
				bestCost = c
				copy(best, v)
			}
			return
		}
		for _, f := range candidateValues(fMax[idx]) {
			v[idx] = f
			setRest(order, oi+1, 1)
			visited++
			feas := setVector(cp, nodes, v) >= float64(a.K)
			if metric.Cost(p) > bestCost {
				// Optimistic completion already too expensive; larger
				// f only costs more.
				break
			}
			rec(oi + 1)
			if feas {
				// (…, f, 1, …) is feasible: larger f is dominated.
				break
			}
			if visited > a.maxExplore() {
				return
			}
		}
		v[idx] = 1
	}
	rec(0)
	return best, bestCost, visited
}

// exploreExact bounds the per-coordinate values enumerated
// exhaustively before switching to a geometric grid.
const exploreExact = 256

func candidateValues(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for f := 1; f <= max && f <= exploreExact; f++ {
		out = append(out, f)
	}
	if max > exploreExact {
		f := float64(exploreExact)
		for {
			f *= 1.5
			if int(f) >= max {
				break
			}
			out = append(out, int(f))
		}
		out = append(out, max)
	}
	return out
}

// minFeasible binary-searches the minimal value of coordinate idx
// (others already set in v) reaching k, up to lim.
func (a *Assigner) minFeasible(cp *card.Compiled, nodes []*plan.Node, v []int, idx, lim int) (int, bool) {
	lo, hi := 1, 1
	for {
		v[idx] = hi
		if setVector(cp, nodes, v) >= float64(a.K) {
			break
		}
		if hi >= lim {
			return 0, false
		}
		lo = hi + 1
		hi *= 2
		if hi > lim {
			hi = lim
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		v[idx] = mid
		if setVector(cp, nodes, v) >= float64(a.K) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v[idx] = lo
	return lo, true
}

// bitsFor approximates the probes of a gallop+binary search to lim.
func bitsFor(lim int) int {
	n := 2
	for lim > 1 {
		lim >>= 1
		n += 2
	}
	return n
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// --- Closed forms (§5.3.1) ---

// SingleChunked computes Eq. 5: with a single chunked service and
// bulk erspi Ξ(G) (product of the effective erspi of all bulk
// services on the result path, including join selectivities), the
// factor needed for k answers is F = ⌈k / (Ξ · cs)⌉.
func SingleChunked(k int, bulkERSPI float64, chunkSize int) int {
	f := int(math.Ceil(float64(k) / (bulkERSPI * float64(chunkSize))))
	if f < 1 {
		f = 1
	}
	return f
}

// PairProduct computes K′ of §5.3.1 for two chunked services:
// F1·F2 ≥ K′ = ⌈k / (Ξ · cs1 · cs2)⌉. The bulk erspi must fold in
// the selectivity of the join combining the two chunked branches
// (this is what makes the paper's Figure 8 arithmetic work out:
// k=10, Ξ=1·0.01 ⇒ K′=8 with cs 25 and 5).
func PairProduct(k int, bulkERSPI float64, cs1, cs2 int) int {
	kp := int(math.Ceil(float64(k) / (bulkERSPI * float64(cs1) * float64(cs2))))
	if kp < 1 {
		kp = 1
	}
	return kp
}

// PairParallel computes Eq. 6: when the two chunked services are not
// on the same path, the cost F1·t1·c1 + F2·t2·c2 subject to
// F1·F2 ≥ K′ is minimized near F1 = √(K′·t2c2/t1c1),
// F2 = √(K′·t1c1/t2c2). The returned pair is the integer solution
// obtained by sweeping the ⌈·⌉ candidates around the real optimum.
func PairParallel(kPrime int, w1, w2 float64) (f1, f2 int) {
	if w1 <= 0 {
		w1 = 1e-9
	}
	if w2 <= 0 {
		w2 = 1e-9
	}
	bestCost := math.Inf(1)
	for c1 := 1; c1 <= kPrime; c1++ {
		c2 := (kPrime + c1 - 1) / c1
		cst := float64(c1)*w1 + float64(c2)*w2
		if cst < bestCost {
			bestCost, f1, f2 = cst, c1, c2
		}
	}
	// Also consider the analytic rounding (matches the paper's ⌈√·⌉
	// formulas when they are feasible).
	r1 := int(math.Ceil(math.Sqrt(float64(kPrime) * w2 / w1)))
	if r1 >= 1 {
		r2 := (kPrime + r1 - 1) / r1
		if cst := float64(r1)*w1 + float64(r2)*w2; cst < bestCost {
			f1, f2 = r1, r2
		}
	}
	return f1, f2
}

// PairParallelPaper applies Eq. 6 exactly as printed in the paper:
// both square roots are rounded up independently,
// F1 = ⌈√(K′·w2/w1)⌉ and F2 = ⌈√(K′·w1/w2)⌉. On the running example
// (K′=8, w1=τ_flight=9.7, w2=τ_hotel=4.9) this yields the (3,4) of
// Figure 8. The independent rounding can over-satisfy F1·F2 ≥ K′ —
// PairParallel finds the cheaper exact integer optimum — but it is
// kept verbatim for the Figure 8 reproduction.
func PairParallelPaper(kPrime int, w1, w2 float64) (f1, f2 int) {
	if w1 <= 0 {
		w1 = 1e-9
	}
	if w2 <= 0 {
		w2 = 1e-9
	}
	f1 = int(math.Ceil(math.Sqrt(float64(kPrime) * w2 / w1)))
	f2 = int(math.Ceil(math.Sqrt(float64(kPrime) * w1 / w2)))
	if f1 < 1 {
		f1 = 1
	}
	if f2 < 1 {
		f2 = 1
	}
	return f1, f2
}

// PairSequential computes Eq. 7: when the second chunked service
// consumes the first one's output on the same path, t_in2 grows
// linearly with F1, so the optimum pins F1 = 1 and F2 = ⌈K′⌉.
func PairSequential(kPrime int) (f1, f2 int) { return 1, kPrime }
