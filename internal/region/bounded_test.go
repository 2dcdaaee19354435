package region

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/workload"
)

// The scan* functions are the exhaustive searches the bounded ones
// replaced, kept as their reference: every grid sample is evaluated
// through lhs, a scan from PMax downward for the feasibility search and
// a strictly-greater scan upward for the maxima. The bounded searches
// must return the same periods, values and errors, bit for bit.

func scanMaxFeasiblePeriod(lhs func(float64) float64, target float64, opts Options) (float64, error) {
	step := opts.PMax / float64(opts.Samples)
	feasible := func(p float64) bool { return lhs(p) >= target }
	for i := opts.Samples; i >= 1; i-- {
		p := float64(i) * step
		if !feasible(p) {
			continue
		}
		// p feasible, p+step (if inside the range) infeasible: bisect.
		lo, hi := p, math.Min(p+step, opts.PMax)
		if hi <= lo {
			return lo, nil
		}
		for hi-lo > bisectTolerance {
			mid := (lo + hi) / 2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo, nil
	}
	return 0, ErrInfeasible
}

func scanMaximize(lhs func(float64) float64, opts Options, objective func(p, lhs float64) float64) (float64, float64) {
	step := opts.PMax / float64(opts.Samples)
	eval := func(p float64) float64 { return objective(p, lhs(p)) }
	bestP, bestV := 0.0, math.Inf(-1)
	for i := 1; i <= opts.Samples; i++ {
		p := float64(i) * step
		if v := eval(p); v > bestV {
			bestP, bestV = p, v
		}
	}
	// Golden-section refinement within [bestP−step, bestP+step].
	lo := math.Max(bestP-step, step/1024)
	hi := math.Min(bestP+step, opts.PMax)
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := eval(a), eval(b)
	for hi-lo > bisectTolerance {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = eval(b)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = eval(a)
		}
	}
	mid := (lo + hi) / 2
	v := eval(mid)
	if v < bestV { // refinement can only improve; keep the scan winner otherwise
		return bestP, bestV
	}
	return mid, v
}

// searchResult is one search's outcome with the lhs evaluations it
// made.
type searchResult struct {
	p, v  float64
	err   error
	evals int
}

func (r searchResult) same(o searchResult) bool {
	return math.Float64bits(r.p) == math.Float64bits(o.p) &&
		math.Float64bits(r.v) == math.Float64bits(o.v) &&
		errors.Is(r.err, o.err) && errors.Is(o.err, r.err)
}

func (r searchResult) String() string {
	return fmt.Sprintf("(%v, %v, %v) after %d evaluations", r.p, r.v, r.err, r.evals)
}

// searches runs the three period searches on cp, bounded and scanned.
// Index 0 is MaxFeasiblePeriod, 1 MaxAdmissibleOverhead and 2
// MaxSlackBandwidth.
func searches(cp *core.CompiledProblem, opts Options) (bounded, scanned [3]searchResult) {
	target := cp.Problem().O.Total()
	g := newGrid(cp, opts)
	p, err := maxFeasiblePeriod(&g, target)
	bounded[0] = searchResult{p: p, err: err, evals: g.evals}
	g = newGrid(cp, opts)
	p, v := maximize(&g, lhsObjective)
	bounded[1] = searchResult{p: p, v: v, evals: g.evals}
	g = newGrid(cp, opts)
	p, v, err = maxSlackBandwidth(&g, target)
	bounded[2] = searchResult{p: p, v: v, err: err, evals: g.evals}

	n := 0
	lhs := func(p float64) float64 { n++; return cp.LHS(p) }
	p, err = scanMaxFeasiblePeriod(lhs, target, opts)
	scanned[0], n = searchResult{p: p, err: err, evals: n}, 0
	p, v = scanMaximize(lhs, opts, lhsObjective)
	scanned[1], n = searchResult{p: p, v: v, evals: n}, 0
	p, v = scanMaximize(lhs, opts, slackObjective(target))
	if v < 0 {
		p, v, err = 0, 0, ErrInfeasible
	} else {
		err = nil
	}
	scanned[2] = searchResult{p: p, v: v, err: err, evals: n}
	return bounded, scanned
}

var searchNames = [3]string{"MaxFeasiblePeriod", "MaxAdmissibleOverhead", "MaxSlackBandwidth"}

// evalTally accumulates evaluation counts per search, and
// MaxSlackBandwidth's bounded counts apart for feasible (index 0) and
// infeasible (index 1) problems.
type evalTally struct {
	problems         int
	bounded, scanned [3]int
	slackProblems    [2]int
	slackBounded     [2]int
}

// check compares the bounded searches with the scans on pr.
func (et *evalTally) check(t testing.TB, pr core.Problem, opts Options) {
	t.Helper()
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts, err = opts.withDefaults(pr)
	if err != nil {
		t.Fatal(err)
	}
	bounded, scanned := searches(cp, opts)
	et.problems++
	for k := range bounded {
		if !bounded[k].same(scanned[k]) {
			t.Fatalf("%s, %s, O_tot=%g, %+v: bounded %v, scan %v\ntasks: %+v",
				searchNames[k], pr.Alg, pr.O.Total(), opts, bounded[k], scanned[k], pr.Tasks)
		}
		et.bounded[k] += bounded[k].evals
		et.scanned[k] += scanned[k].evals
	}
	infeasible := 0
	if bounded[2].err != nil {
		infeasible = 1
	}
	et.slackProblems[infeasible]++
	et.slackBounded[infeasible] += bounded[2].evals
}

func (et *evalTally) log(t *testing.T) {
	for k, name := range searchNames {
		t.Logf("%s: mean lhs evaluations per search %.0f (scan %.0f) over %d problems",
			name, float64(et.bounded[k])/float64(et.problems), float64(et.scanned[k])/float64(et.problems), et.problems)
	}
	for i, kind := range []string{"feasible", "infeasible"} {
		if n := et.slackProblems[i]; n > 0 {
			t.Logf("MaxSlackBandwidth: mean lhs evaluations per search %.0f over %d %s problems",
				float64(et.slackBounded[i])/float64(n), n, kind)
		}
	}
}

func TestBoundedSearchesMatchScanPaper(t *testing.T) {
	var et evalTally
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		for _, otot := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3} {
			for _, samples := range []int{2, 3, 7, 100, 350, 1000, 0} {
				et.check(t, paperProblem(alg, otot), Options{Samples: samples})
			}
		}
	}
	et.log(t)
}

// generatedProblems partitions n generated sets on the {5, 10, 15, 20,
// 30, 60} period grid, with implicit and constrained deadlines and total
// utilisations between 0.6 and 2.8, worst-fit decreasing under each
// algorithm, and calls f with every set that partitions.
func generatedProblems(t testing.TB, n int, f func(core.Problem)) {
	t.Helper()
	algs := []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM}
	for k := 0; k < n; k++ {
		s, err := workload.Generate(workload.Config{
			N:                    3 + k%12,
			TotalUtilization:     0.6 + 2.2*float64(k%23)/22,
			Periods:              []float64{5, 10, 15, 20, 30, 60},
			ConstrainedDeadlines: k%2 == 1,
			Seed:                 int64(k + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			parted, err := partition.Assign(s, partition.Options{Heuristic: partition.WorstFit, Decreasing: true, Alg: alg})
			if errors.Is(err, partition.ErrUnplaceable) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			f(core.Problem{Tasks: parted, Alg: alg, O: core.UniformOverheads([]float64{0, 0.01, 0.05, 0.1, 0.2}[k%5])})
		}
	}
}

func TestBoundedSearchesMatchScanGenerated(t *testing.T) {
	var et evalTally
	generatedProblems(t, 1500, func(pr core.Problem) { et.check(t, pr, Options{}) })
	et.log(t)
}

// overloadedProblem is the paper's FT channel with a guest that
// overloads it (utilisation 1.02): under every algorithm some pair of
// the channel demands more than its interval, W > t, so its quantum
// exceeds P at every P and falls as a share of P. The bandwidth bound's
// guard S(P) < P fails on the whole grid, and every interval takes the
// bound by S alone. (The paper problems fail that guard only on part of
// their grid, where lhs(P) ≤ 0.)
func overloadedProblem(alg analysis.Alg, otot float64) core.Problem {
	pr := paperProblem(alg, otot)
	pr.Tasks = append(pr.Tasks.ByMode(task.FT), task.Task{Name: "hog", C: 9, T: 12, D: 12, Mode: task.FT})
	return pr
}

// TestBoundedSearchesMatchScanOverloaded compares the searches on the
// overloaded problem, after checking its premise: S(P) ≥ P at every
// sample, and S(P)/P falls between samples, so a bandwidth bound taken
// without the guard would be unsound there. Such a bound would still
// return the same answers: with an overloaded channel lhs is negative
// and nonincreasing, so the searches find ErrInfeasible or the first
// sample, through intervals with p_lo = 0, which take the bound by S
// alone. The guard keeps the bound sound, which TestLHSBoundSound
// checks; no answer depends on it.
func TestBoundedSearchesMatchScanOverloaded(t *testing.T) {
	var et evalTally
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		pr := overloadedProblem(alg, 0)
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := Options{}.withDefaults(pr)
		if err != nil {
			t.Fatal(err)
		}
		falls := 0
		for g, i, prev := newGrid(cp, opts), 1, 0.0; i <= g.n; i++ {
			p := g.p(i)
			s := g.quanta(p)
			if s < p {
				t.Fatalf("%s: S(%g) = %g < P, want the channel overloaded", alg, p, s)
			}
			if s/p < prev-boundMargin*(1+prev) {
				falls++
			}
			prev = s / p
		}
		if falls == 0 {
			t.Fatalf("%s: S(P)/P never falls on the grid", alg)
		}
		for _, otot := range []float64{0, 0.05, 0.3} {
			for _, samples := range []int{2, 7, 350, 0} {
				et.check(t, overloadedProblem(alg, otot), Options{Samples: samples})
			}
		}
	}
	et.log(t)
}

// TestQuantaSumMonotone checks the premise of the bound by S alone: over
// a fine period grid, S(P) = Σ_k max_i minQ(T_k^i, P) never falls below
// its running maximum by more than the bound's margin.
func TestQuantaSumMonotone(t *testing.T) {
	check := func(pr core.Problem) {
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UpperBound(pr.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 20000
		top := 0.0
		for i := 1; i <= samples; i++ {
			p := 1.5 * ub * float64(i) / samples
			s := cp.MinQuanta(p).Total()
			if s < top-boundMargin*(p+top) {
				t.Fatalf("%s: S(%g) = %g below an earlier S = %g", pr.Alg, p, s, top)
			}
			top = math.Max(top, s)
		}
	}
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		check(paperProblem(alg, 0))
	}
	n := 0
	generatedProblems(t, 30, func(pr core.Problem) { n++; check(pr) })
	if n == 0 {
		t.Fatal("no generated set partitioned")
	}
}

// TestBandwidthMonotone checks the premise of the bandwidth bound: over
// a fine period grid, once S(p_lo) < p_lo, no mode's quantum bandwidth
// Q_k(P)/P at a later P falls below its value at p_lo by more than the
// bound's margin. The running maximum takes only the samples where the
// guard S(P) < P holds; every later sample is checked against it.
func TestBandwidthMonotone(t *testing.T) {
	check := func(pr core.Problem) {
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UpperBound(pr.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 20000
		var top [task.NumModes]float64
		for i := 1; i <= samples; i++ {
			p := 1.5 * ub * float64(i) / samples
			q := cp.MinQuanta(p)
			for _, m := range task.Modes() {
				if bw := q.Of(m) / p; bw < top[m]-boundMargin*(1+top[m]) {
					t.Fatalf("%s: mode %s bandwidth %g at P = %g below an earlier %g", pr.Alg, m, bw, p, top[m])
				}
			}
			if q.Total() < p {
				for _, m := range task.Modes() {
					top[m] = math.Max(top[m], q.Of(m)/p)
				}
			}
		}
	}
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		check(paperProblem(alg, 0))
	}
	n := 0
	generatedProblems(t, 30, func(pr core.Problem) { n++; check(pr) })
	if n == 0 {
		t.Fatal("no generated set partitioned")
	}
}

// TestLHSBoundSound checks lhsBound itself: on a coarse grid, lhs at a
// sample never exceeds the bound from S at any earlier sample (or from
// p_lo = 0). On the overloaded problem, whose bandwidth falls, a bound
// without its guard fails this.
func TestLHSBoundSound(t *testing.T) {
	check := func(pr core.Problem) {
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UpperBound(pr.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		const n = 128
		var ps, ss [n + 1]float64
		for i := 1; i <= n; i++ {
			ps[i] = ub * float64(i) / n
			ss[i] = cp.MinQuanta(ps[i]).Total()
		}
		for lo := 0; lo < n; lo++ {
			for i := lo + 1; i <= n; i++ {
				if b := lhsBound(ps[lo], ps[i], ss[lo]); ps[i]-ss[i] > b {
					t.Fatalf("%s: lhs(%g) = %g above the bound %g from S(%g) = %g", pr.Alg, ps[i], ps[i]-ss[i], b, ps[lo], ss[lo])
				}
			}
		}
	}
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		check(paperProblem(alg, 0))
		check(overloadedProblem(alg, 0))
	}
	generatedProblems(t, 30, func(pr core.Problem) { check(pr) })
}

// TestBoundedSearchEvaluationCounts pins how many lhs evaluations the
// bounded searches make on the paper's EDF problem at O_tot = 0.05,
// refinement included. A scan of every sample makes 3015 and 4132, and
// bounding every interval by S alone, without the bandwidth bound,
// 61 and 312.
func TestBoundedSearchEvaluationCounts(t *testing.T) {
	cp, err := paperProblem(analysis.EDF, 0.05).Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Options{}.withDefaults(cp.Problem())
	if err != nil {
		t.Fatal(err)
	}
	g := newGrid(cp, opts)
	if _, err := maxFeasiblePeriod(&g, 0.05); err != nil {
		t.Fatal(err)
	}
	t.Logf("MaxFeasiblePeriod: %d lhs evaluations", g.evals)
	if g.evals > 48 {
		t.Errorf("MaxFeasiblePeriod made %d lhs evaluations, want ≤ 48", g.evals)
	}
	g = newGrid(cp, opts)
	if _, _, err := maxSlackBandwidth(&g, 0.05); err != nil {
		t.Fatal(err)
	}
	t.Logf("MaxSlackBandwidth: %d lhs evaluations", g.evals)
	if g.evals > 160 {
		t.Errorf("MaxSlackBandwidth made %d lhs evaluations, want ≤ 160", g.evals)
	}
}

// FuzzPeriodSearch decodes up to eight tasks, an algorithm, a total
// overhead and a sample count in [2, 512], and requires the bounded
// searches to return exactly what the scans return.
func FuzzPeriodSearch(f *testing.F) {
	f.Add([]byte{0, 5, 0, 40, 120, 255, 0, 1, 9, 3, 200, 60})
	f.Add([]byte{2, 80, 1, 0, 10, 50, 50, 0, 7, 1, 2, 255, 255, 4, 1, 100, 30, 99})
	f.Add([]byte{1, 0, 255, 6, 1, 1, 255, 2, 0, 3, 128, 128, 128, 5, 2, 4, 200, 1, 17, 0, 0})
	// Two tasks {C 2.55, T 5, D 5} overload FT/0 (W = 5.1 at t = 5), so
	// S(P) ≥ P and the bound falls back to S alone; an NF task rides along.
	f.Add([]byte{1, 13, 62, 0, 3, 255, 255, 0, 3, 255, 255, 0, 6, 40, 200, 2})
	periods := []float64{2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		alg := []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM}[int(data[0])%3]
		otot := 0.3 * float64(data[1]) / 255
		samples := 2 + int(binary.LittleEndian.Uint16(data[2:4]))%511
		var s task.Set
		for i, b := 0, data[4:]; len(b) >= 4 && len(s) < 8; i, b = i+1, b[4:] {
			period := periods[int(b[0])%len(periods)]
			c := period * (0.01 + 0.5*float64(b[1])/255)
			d := c + (period-c)*float64(b[2])/255
			m := task.Modes()[int(b[3])%task.NumModes]
			s = append(s, task.Task{Name: fmt.Sprintf("t%d", i), C: c, T: period, D: d, Mode: m, Channel: int(b[3]/3) % m.Channels()})
		}
		if len(s) == 0 || s.Validate() != nil {
			return
		}
		var et evalTally
		et.check(t, core.Problem{Tasks: s, Alg: alg, O: core.UniformOverheads(otot)}, Options{Samples: samples})
	})
}
