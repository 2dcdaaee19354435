package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/partition"
	"repro/internal/supply"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// One benchmark per evaluation artifact of the paper (Figure 4 and the
// Table 2 rows), plus ablations for the design decisions called out in
// DESIGN.md. Key reproduced values are attached as custom metrics so
// `go test -bench` output doubles as the experiment record.

// naiveExplore reproduces the pre-compilation sweep: one naive
// Problem.LHS evaluation (hyperperiods, point sets and demand bounds
// rebuilt from scratch) per sample. It is the ablation baseline the
// compiled sub-benchmarks are measured against.
func naiveExplore(pr Problem, pMax float64, samples int) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, samples)
	step := pMax / float64(samples)
	for i := 1; i <= samples; i++ {
		p := float64(i) * step
		lhs, err := pr.LHS(p)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{P: p, LHS: lhs})
	}
	return out, nil
}

// BenchmarkFigure4SweepEDF regenerates the EDF curve of Figure 4,
// comparing the naive per-sample evaluation against the compiled-profile
// path (which includes the one-time compilation in every iteration).
func BenchmarkFigure4SweepEDF(b *testing.B) {
	pr := PaperProblem(EDF)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts, err := naiveExplore(pr, 3.5, 350)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != 350 {
				b.Fatal("short sweep")
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts, err := Explore(pr, ExploreOptions{PMax: 3.5, Samples: 350})
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != 350 {
				b.Fatal("short sweep")
			}
		}
	})
}

// BenchmarkFigure4SweepRM regenerates the RM curve of Figure 4.
func BenchmarkFigure4SweepRM(b *testing.B) {
	pr := PaperProblem(RM)
	for i := 0; i < b.N; i++ {
		if _, err := Explore(pr, ExploreOptions{PMax: 3.5, Samples: 350}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Points locates the five labelled points of Figure 4.
func BenchmarkFigure4Points(b *testing.B) {
	var p1, p2, o3, o4, p5 float64
	for i := 0; i < b.N; i++ {
		var err error
		if p1, err = MaxFeasiblePeriod(withOverhead(PaperProblem(EDF), 0), ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
		if p2, err = MaxFeasiblePeriod(withOverhead(PaperProblem(RM), 0), ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, o3, err = MaxAdmissibleOverhead(PaperProblem(EDF), ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, o4, err = MaxAdmissibleOverhead(PaperProblem(RM), ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
		if p5, err = MaxFeasiblePeriod(PaperProblem(EDF), ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p1, "①maxP-edf")
	b.ReportMetric(p2, "②maxP-rm")
	b.ReportMetric(o3, "③maxO-edf")
	b.ReportMetric(o4, "④maxO-rm")
	b.ReportMetric(p5, "⑤maxP-edf@.05")
}

// BenchmarkTable2MaxPeriod solves the min-overhead-bandwidth design.
func BenchmarkTable2MaxPeriod(b *testing.B) {
	pr := PaperProblem(EDF)
	var sol Solution
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = Design(pr, MinOverheadBandwidth); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sol.Config.P, "P")
	b.ReportMetric(sol.Quanta.FT, "Q̃FT")
	b.ReportMetric(sol.Quanta.FS, "Q̃FS")
	b.ReportMetric(sol.Quanta.NF, "Q̃NF")
}

// BenchmarkTable2MaxSlack solves the max-flexibility design.
func BenchmarkTable2MaxSlack(b *testing.B) {
	pr := PaperProblem(EDF)
	var sol Solution
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = Design(pr, MaxFlexibility); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sol.Config.P, "P")
	b.ReportMetric(sol.SlackBandwidth, "slackBW")
}

// BenchmarkMinQ measures the core primitive for both algorithms on the
// paper's FT channel: the naive oracle (rebuilds points and demand
// bounds per call) against the compiled profile (steady-state,
// allocation-free).
func BenchmarkMinQ(b *testing.B) {
	s := task.PaperTaskSet().ByMode(task.FT)
	for _, alg := range []Alg{RM, EDF} {
		b.Run(alg.String()+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analysis.MinQ(s, alg, 2.0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(alg.String()+"/compiled", func(b *testing.B) {
			pf, err := analysis.Compile(s, alg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += pf.MinQ(2.0)
			}
			_ = sink
		})
	}
}

// BenchmarkSimulateHyperperiod executes the Table 2(b) design for one
// hyperperiod (120 time units), sequentially and with channel-parallel
// execution.
func BenchmarkSimulateHyperperiod(b *testing.B) {
	sol, err := Design(PaperProblem(EDF), MinOverheadBandwidth)
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var misses int
			for i := 0; i < b.N; i++ {
				res, err := Simulate(sol.Config, PaperTaskSet(), EDF, SimOptions{Parallel: parallel})
				if err != nil {
					b.Fatal(err)
				}
				misses = res.TotalMisses()
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkSimulateWithFaults adds Poisson fault injection and the
// checker machinery to the hyperperiod run.
func BenchmarkSimulateWithFaults(b *testing.B) {
	sol, err := Design(PaperProblem(EDF), MinOverheadBandwidth)
	if err != nil {
		b.Fatal(err)
	}
	inj := PoissonFaults{Rate: 0.05, Duration: timeu.FromUnits(0.05), Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sol.Config, PaperTaskSet(), EDF, SimOptions{Injector: inj, Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExactSupply compares the linear-bound minQ (Eq. 6/11,
// what the paper uses) against the exact Lemma 1 supply (the "tedious"
// variant the paper skips), quantifying the quantum the linear bound
// gives away on the FT channel.
func BenchmarkAblationExactSupply(b *testing.B) {
	s := task.PaperTaskSet().ByMode(task.FT)
	const p = 2.0
	b.Run("linear", func(b *testing.B) {
		var q float64
		for i := 0; i < b.N; i++ {
			var err error
			if q, err = analysis.MinQ(s, EDF, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(q, "minQ")
	})
	b.Run("exact", func(b *testing.B) {
		var q float64
		for i := 0; i < b.N; i++ {
			var ok bool
			var err error
			if q, ok, err = supply.MinQExact(s, EDF, p); err != nil || !ok {
				b.Fatal(err, ok)
			}
		}
		b.ReportMetric(q, "minQ")
	})
}

// BenchmarkAblationPartitionHeuristics compares the channel-assignment
// heuristics (the allocation step the paper leaves to future work) on a
// 24-task synthetic workload: runtime plus resulting max channel
// utilisation.
func BenchmarkAblationPartitionHeuristics(b *testing.B) {
	src, err := workload.Generate(workload.Config{N: 24, TotalUtilization: 3.5, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit} {
		b.Run(h.String(), func(b *testing.B) {
			var u float64
			for i := 0; i < b.N; i++ {
				got, err := partition.Assign(src, partition.Options{Heuristic: h, Decreasing: true, Alg: EDF})
				if err != nil {
					b.Skip("heuristic failed on this workload")
				}
				u = partition.MaxChannelUtilization(got)
			}
			b.ReportMetric(u, "maxChanU")
		})
	}
}

// BenchmarkAutoPartition times AutoPartition (worst-fit decreasing,
// EDF admission), the partition rung under design-space planning and
// the online manager's setup. The design sub-benchmark cycles through
// a fixed pool of design-space-shaped sets — 10–24 tasks, utilisation
// climbing 0.8–2.6, periods {5, 10, 15, 20, 30, 60}, modes cycling over
// the seven channels; residents=300 partitions the 300 residents of
// the live=300 churn rung, about 43 per channel.
func BenchmarkAutoPartition(b *testing.B) {
	const poolSize = 64
	pool := make([]TaskSet, poolSize)
	for k := range pool {
		s, err := workload.Generate(workload.Config{
			N:                10 + k%15,
			TotalUtilization: 0.8 + 1.8*(float64(k)+0.5)/poolSize,
			Periods:          []float64{5, 10, 15, 20, 30, 60},
			Seed:             int64(k),
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := range s {
			s[i].Mode, s[i].Channel = modeCycle[i%7], 0
		}
		pool[k] = s
	}
	b.Run("design", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AutoPartition(pool[i%poolSize], EDF); err != nil && !errors.Is(err, partition.ErrUnplaceable) {
				b.Fatal(err)
			}
		}
	})
	b.Run("residents=300", func(b *testing.B) {
		src := churnResidents(300)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AutoPartition(src, EDF); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSchedPoints compares Theorem 1 feasibility checking
// over the minimal Bini–Buttazzo point set against a dense grid, the
// design decision behind internal/points.
func BenchmarkAblationSchedPoints(b *testing.B) {
	s := task.PaperTaskSet().ByMode(task.FT).SortedRM()
	sp := analysis.Supply{Alpha: 0.4, Delta: 0.5}
	b.Run("schedP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := analysis.FeasibleFP(s, RM, sp)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Same condition checked on a 1e-2 grid over each deadline,
			// ending at the deadline itself.
			for idx, tk := range s {
				ok := false
				for k := 1; !ok; k++ {
					t := min(float64(k)*0.01, tk.D)
					ok = sp.Delta <= t-analysis.RequestBound(tk.C, s[:idx], t)/sp.Alpha
					if t == tk.D {
						break
					}
				}
				if !ok {
					b.Fatal("dense grid found infeasible")
				}
			}
		}
	})
}

// BenchmarkWorkloadGeneration measures the synthetic workload generator
// used by the scaling studies.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.Config{N: 50, TotalUtilization: 6, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSubSlots sizes the multi-quantum extension (the
// paper's Section 5 future work) at P = 1.7 — a period misaligned with
// the task deadlines, where splitting genuinely helps — for k = 1…4
// sub-slots per period, reporting the allocated bandwidth: more
// sub-slots need less quantum but pay the switch overhead k times.
func BenchmarkAblationSubSlots(b *testing.B) {
	pr := PaperProblem(EDF)
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var sol SplitSolution
			for i := 0; i < b.N; i++ {
				var err error
				if sol, err = SolveSplit(pr, 1.7, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Allocated, "allocBW")
			b.ReportMetric(sol.Quanta.Total(), "ΣQ̃")
		})
	}
}

// BenchmarkSweepParallel compares the sequential Figure 4 sweep against
// the worker-pool version on a dense grid, each on both the naive and
// the compiled path. The naive parallel baseline reproduces the
// pre-compilation worker pool: per-sample Problem.LHS behind an atomic
// work counter.
func BenchmarkSweepParallel(b *testing.B) {
	pr := PaperProblem(EDF)
	opts := ExploreOptions{PMax: 3.5, Samples: 2048}
	naiveParallel := func() error {
		out := make([]SweepPoint, opts.Samples)
		errs := make([]error, runtime.GOMAXPROCS(0))
		step := opts.PMax / float64(opts.Samples)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < len(errs); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= opts.Samples {
						return
					}
					p := float64(i+1) * step
					lhs, err := pr.LHS(p)
					if err != nil {
						errs[w] = err
						return
					}
					out[i] = SweepPoint{P: p, LHS: lhs}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	b.Run("sequential/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := naiveExplore(pr, opts.PMax, opts.Samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(pr, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := naiveParallel(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExploreParallel(pr, opts, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNonUniformLayout sizes the general multi-quantum
// layout that rescues P = 6 — a period no single-slot (or uniform-split)
// design can reach because τ9's deadline is 4. Reported metrics: the
// layout's consumed bandwidth and slack.
func BenchmarkAblationNonUniformLayout(b *testing.B) {
	pr := PaperProblem(EDF)
	var l PeriodLayout
	for i := 0; i < b.N; i++ {
		var err error
		if l, err = SolveLayout(pr, 6.0, SubSlotCounts{FT: 1, FS: 4, NF: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(l.Consumed/l.P, "allocBW")
	b.ReportMetric(l.Slack(), "slack")
}

// churnChannel builds an n-task single-channel workload (everything on
// the FT channel) over a period grid whose LCM is 120, bounding the
// hyperperiod. Note a small n may realise a shorter hyperperiod (n=10
// with this seed draws no T=8, giving 60), so guests for the size sweep
// must come from the channel itself; the 20-task channel used by the
// guest sweep realises the full 120.
func churnChannel(b *testing.B, n int) TaskSet {
	b.Helper()
	src, err := workload.Generate(workload.Config{
		N:                n,
		TotalUtilization: 0.75,
		Periods:          []float64{4, 5, 6, 8, 10, 12, 15, 20, 30, 60},
		Seed:             17,
	})
	if err != nil {
		b.Fatal(err)
	}
	out := make(TaskSet, n)
	for i, tk := range src {
		tk.Mode, tk.Channel = FT, 0
		out[i] = tk
	}
	return out
}

// churnGrid is the period grid of the live=300 manager rung: the
// admission workload's grid, whose hyperperiod is 120.
var churnGrid = []float64{4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120}

// churnResidents draws n residents spread over all seven channels:
// modes cycle FT, FS, FS, NF, NF, NF, NF, periods cycle churnGrid, and
// the total utilisation is 1.2, each task within ±25 % of the mean.
func churnResidents(n int) TaskSet {
	rng := rand.New(rand.NewSource(2007))
	src := make(TaskSet, n)
	for i := range src {
		T := churnGrid[i%len(churnGrid)]
		u := 1.2 / float64(n) * (0.75 + 0.5*rng.Float64())
		src[i] = Task{Name: fmt.Sprintf("r%03d", i), C: u * T, T: T, D: T, Mode: modeCycle[i%7]}
	}
	return src
}

// modeCycle gives one task to each channel in turn: FT has one channel,
// FS two and NF four.
var modeCycle = [7]Mode{FT, FS, FS, NF, NF, NF, NF}

// churnDesign builds a max-flexibility manager over the n residents of
// churnResidents.
func churnDesign(b *testing.B, n int) (*OnlineManager, TaskSet) {
	b.Helper()
	parted, err := AutoPartition(churnResidents(n), EDF)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := NewProblem(parted, EDF, PaperOverheadTotal)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := Design(pr, MaxFlexibility)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := NewOnlineManager(pr, sol.Config)
	if err != nil {
		b.Fatal(err)
	}
	return mgr, pr.Tasks
}

// BenchmarkAdmitRemoveChurn is the tentpole measurement of the
// incremental profile layer: one admit+remove cycle on a 20-task
// channel, patching the compiled profile versus recompiling the channel
// from scratch the way reshape used to. The "incremental" cycles run
// the in-place exclusive patch path (Thawed + AddTasks/DropTasks — what
// the online manager executes per reconfiguration, steady-state
// allocation-free); "immutable" runs the one-task WithTasks/WithoutTasks
// what-ifs that queries use: the same patch on a clone of the
// receiver, frozen afterwards. The guest's
// period selects its deadline count within the fixed 120-unit
// hyperperiod (T=60 → 2 points, T=12 → 10, T=5 → 24, all on the
// channel's own deadline grid): the incremental cycle patches the
// channel's one demand row, so its cost tracks the channel's point
// stream plus the guest's own deadlines, while recompilation
// re-enumerates and re-merges every task's deadlines every time. The off-grid guest (D=3.7, so its
// deadlines land between the channel's integer scheduling points)
// exercises the heavier merge/unmerge path — every one of its 30 points
// is brand new — and is the worst case for the patch. The channel-size sweep readmits a clone
// of each channel's own first task, and the manager sub-benchmark
// measures the full admission-controller cycle built on the incremental
// path. The manager/live=300 rung runs that cycle at the admission
// workload's scale, where publishing the live set is visible: a
// 300-resident design over all seven channels, metrics on, each cycle
// one RemoveBatch of six residents from the middle of the live set,
// across channels, and one AdmitBatch readmitting them.
func BenchmarkAdmitRemoveChurn(b *testing.B) {
	const channelTasks = 20
	ch := churnChannel(b, channelTasks)
	pf, err := analysis.Compile(ch, EDF)
	if err != nil {
		b.Fatal(err)
	}
	cycle := func(b *testing.B, pf *analysis.Profile, guest Task) {
		b.Helper()
		mu := pf.Thawed()
		batch := []Task{guest}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mu.AddTasks(batch); err != nil {
				b.Fatal(err)
			}
			if err := mu.DropTasks(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	immutableCycle := func(b *testing.B, pf *analysis.Profile, guest Task) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grown, err := pf.WithTasks([]Task{guest})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := grown.WithoutTasks([]Task{guest}); err != nil {
				b.Fatal(err)
			}
		}
	}
	recompileCycle := func(b *testing.B, ch TaskSet, guest Task) {
		b.Helper()
		b.ReportAllocs()
		candidate := append(append(TaskSet(nil), ch...), guest)
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Compile(candidate, EDF); err != nil {
				b.Fatal(err)
			}
			if _, err := analysis.Compile(ch, EDF); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, gT := range []float64{60, 12, 5} {
		guest := Task{Name: "churn-guest", C: 0.05, T: gT, D: gT, Mode: FT, Channel: 0}
		b.Run(fmt.Sprintf("incremental/guestT=%g", gT), func(b *testing.B) {
			cycle(b, pf, guest)
			b.ReportMetric(120/gT, "guestDLs")
		})
		b.Run(fmt.Sprintf("immutable/guestT=%g", gT), func(b *testing.B) {
			immutableCycle(b, pf, guest)
			b.ReportMetric(120/gT, "guestDLs")
		})
		b.Run(fmt.Sprintf("recompile/guestT=%g", gT), func(b *testing.B) {
			recompileCycle(b, ch, guest)
			b.ReportMetric(120/gT, "guestDLs")
		})
	}
	offgrid := Task{Name: "churn-guest", C: 0.05, T: 4, D: 3.7, Mode: FT, Channel: 0}
	b.Run("incremental/offgridT=4", func(b *testing.B) { cycle(b, pf, offgrid) })
	b.Run("immutable/offgridT=4", func(b *testing.B) { immutableCycle(b, pf, offgrid) })
	b.Run("recompile/offgridT=4", func(b *testing.B) { recompileCycle(b, ch, offgrid) })
	for _, n := range []int{10, 40} {
		sized := churnChannel(b, n)
		szPf, err := analysis.Compile(sized, EDF)
		if err != nil {
			b.Fatal(err)
		}
		clone := sized[0]
		clone.Name = "churn-guest"
		b.Run(fmt.Sprintf("incremental/channelN=%d", n), func(b *testing.B) {
			cycle(b, szPf, clone)
		})
	}
	b.Run("manager", func(b *testing.B) {
		pr := Problem{Tasks: ch, Alg: EDF}
		cfg, err := pr.ConfigFor(2.0)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := NewOnlineManager(pr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Instruments on: the zero-alloc contract covers the metered
		// manager, not just the bare one.
		mgr.SetMetrics(NewOnlineMetrics(NewMetricsRegistry()))
		guest := Task{Name: "mgr-guest", C: 0.05, T: 12, D: 12, Mode: FT, Channel: 0}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mgr.Admit(guest); err != nil {
				b.Fatal(err)
			}
			if err := mgr.Remove(guest.Name); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("manager/live=300", func(b *testing.B) {
		mgr, residents := churnDesign(b, 300)
		mgr.SetMetrics(NewOnlineMetrics(NewMetricsRegistry()))
		// Eight groups of six residents, 40 positions apart, so each
		// group spans modes. A readmitted group moves to the end of the
		// live set; the others then still lie between residents that
		// never leave and the groups readmitted after them.
		const groups, size = 8, 6
		batches := make([][]Task, groups)
		names := make([][]string, groups)
		for g := range batches {
			for q := 0; q < size; q++ {
				r := residents[20+g+40*q]
				batches[g], names[g] = append(batches[g], r), append(names[g], r.Name)
			}
		}
		cycle := func(i int) {
			g := i % groups
			if err := mgr.RemoveBatch(names[g]); err != nil {
				b.Fatal(err)
			}
			if err := mgr.AdmitBatch(batches[g]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2*groups; i++ { // warm pools and snapshot backings
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
	})
}

// BenchmarkBatchAdmission is the tentpole measurement of the batched
// admission path: one AdmitBatch/RemoveBatch round trip of k = 8 guests
// on a 20-task channel versus the same 8 guests admitted and removed
// sequentially. The batch patches the channel profile once (one stream
// merge, one envelope re-prune for the group) and swaps the
// configuration once, where the sequential path pays the per-event cost
// 8 times. The profile sub-benchmarks isolate the analysis-layer share
// of the win (WithTasks versus the fold of one-task WithTasks).
func BenchmarkBatchAdmission(b *testing.B) {
	const channelTasks = 20
	ch := churnChannel(b, channelTasks)
	pr := Problem{Tasks: ch, Alg: EDF}
	periods := []float64{5, 6, 8, 10, 12, 15, 20, 30} // all on the channel's grid
	guests := make([]Task, len(periods))
	names := make([]string, len(periods))
	for i, T := range periods {
		guests[i] = Task{Name: fmt.Sprintf("batch-g%d", i), C: 0.01, T: T, D: T, Mode: FT, Channel: 0}
		names[i] = guests[i].Name
	}
	newMgr := func(b *testing.B) *OnlineManager {
		b.Helper()
		cfg, err := pr.ConfigFor(2.0)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := NewOnlineManager(pr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return mgr
	}
	b.Run("manager/batch-k=8", func(b *testing.B) {
		mgr := newMgr(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mgr.AdmitBatch(guests); err != nil {
				b.Fatal(err)
			}
			if err := mgr.RemoveBatch(names); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("manager/sequential-k=8", func(b *testing.B) {
		mgr := newMgr(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range guests {
				if err := mgr.Admit(g); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range names {
				if err := mgr.Remove(name); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	pf, err := analysis.Compile(ch, EDF)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("profile/batch-k=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grown, err := pf.WithTasks(guests)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := grown.WithoutTasks(guests); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile/mutable-batch-k=8", func(b *testing.B) {
		mu := pf.Thawed()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mu.AddTasks(guests); err != nil {
				b.Fatal(err)
			}
			if err := mu.DropTasks(guests); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile/sequential-k=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grown := pf
			var err error
			for _, g := range guests {
				if grown, err = grown.WithTasks([]Task{g}); err != nil {
					b.Fatal(err)
				}
			}
			for _, g := range guests {
				if grown, err = grown.WithoutTasks([]Task{g}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkShardedChurn measures concurrent admission traffic on the
// sharded manager: every worker churns its own guest, either spread
// over the four NF channels (disjoint shards — profile patches run
// concurrently, only the decide-and-swap serialises) or all contending
// for channel 0 (the per-channel lock serialises everything, the
// pre-sharding behaviour for any traffic mix). A single-core runner
// shows the two close together; with parallelism the spread variant
// pulls ahead.
func BenchmarkShardedChurn(b *testing.B) {
	src, err := workload.Generate(workload.Config{
		N:                40,
		TotalUtilization: 2.0,
		Periods:          []float64{4, 5, 6, 8, 10, 12, 15, 20, 30, 60},
		Seed:             19,
	})
	if err != nil {
		b.Fatal(err)
	}
	tasks := make(TaskSet, len(src))
	for i, tk := range src {
		tk.Mode, tk.Channel = NF, i%4
		tasks[i] = tk
	}
	pr := Problem{Tasks: tasks, Alg: EDF}
	for _, spread := range []bool{true, false} {
		name := "spread-4-channels"
		if !spread {
			name = "contended-1-channel"
		}
		b.Run(name, func(b *testing.B) {
			cfg, err := pr.ConfigFor(2.0)
			if err != nil {
				b.Fatal(err)
			}
			mgr, err := NewOnlineManager(pr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1)) - 1
				channel := 0
				if spread {
					channel = w % 4
				}
				guest := Task{Name: fmt.Sprintf("churn-w%d", w), C: 0.01, T: 12, D: 12, Mode: NF, Channel: channel}
				names := []string{guest.Name}
				batch := []Task{guest}
				for pb.Next() {
					if err := mgr.AdmitBatch(batch); err != nil {
						b.Error(err)
						return
					}
					if err := mgr.RemoveBatch(names); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkOnlineAdmission measures one admit/remove reconfiguration
// cycle on the live max-flexibility design.
func BenchmarkOnlineAdmission(b *testing.B) {
	pr := PaperProblem(EDF)
	sol, err := Design(pr, MaxFlexibility)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := NewOnlineManager(pr, sol.Config)
	if err != nil {
		b.Fatal(err)
	}
	guest := Task{Name: "bench-guest", C: 0.2, T: 10, Mode: NF, Channel: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Admit(guest); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Remove(guest.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioReplay measures the scenario runtime end to end: a
// seeded 64-event workload storm (admissions, partial admissions,
// removals, revocations, restores) replayed against a fresh online
// manager over 120 time units, every epoch simulated on all channels.
// The custom metrics put the runtime in problem terms: workload events
// and simulated ticks digested per second of wall clock.
func BenchmarkScenarioReplay(b *testing.B) {
	pr := PaperProblem(EDF)
	cp, err := Compile(pr)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := Design(pr, MaxFlexibility)
	if err != nil {
		b.Fatal(err)
	}

	const (
		horizonUnits = 120.0
		nEvents      = 64
	)
	rng := rand.New(rand.NewSource(17))
	periods := []float64{8, 10, 12, 16}
	var (
		events []WorkloadEvent
		pool   []string
	)
	start, end := 0.05*horizonUnits, 0.9*horizonUnits
	step := (end - start) / nEvents
	at := start
	for i := 0; i < nEvents; i++ {
		ev := WorkloadEvent{At: timeu.FromUnits(at + rng.Float64()*step*0.9)}
		at += step
		name := fmt.Sprintf("bench-g%d", i)
		md := task.Modes()[rng.Intn(task.NumModes)]
		guest := Task{
			Name: name, C: 0.01 + 0.04*rng.Float64(), T: periods[rng.Intn(len(periods))],
			Mode: md, Channel: rng.Intn(md.Channels()),
		}
		switch r := rng.Intn(10); {
		case r < 5:
			ev.Kind = EventAdmit
			ev.Tasks = TaskSet{guest}
			pool = append(pool, name)
		case r < 7:
			ev.Kind = EventAdmitPartial
			ev.Tasks = TaskSet{guest}
			pool = append(pool, name)
		case r < 9 && len(pool) > 0:
			ev.Kind = EventRemove
			j := rng.Intn(len(pool))
			ev.Names = []string{pool[j]}
			pool = append(pool[:j], pool[j+1:]...)
		default:
			ev.Kind = EventRevoke
			ev.Capacity = 0.01 * sol.Config.P
		}
		events = append(events, ev)
	}
	sc := Scenario{Events: events}
	opts := ScenarioOptions{Options: SimOptions{Horizon: timeu.FromUnits(horizonUnits)}}

	b.ReportAllocs()
	b.ResetTimer()
	var epochs int
	for i := 0; i < b.N; i++ {
		// A fresh manager per iteration: replay mutates the live set.
		mgr, err := NewOnlineManagerFromCompiled(cp, sol.Config)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ReplayScenario(mgr, sc, opts)
		if err != nil {
			b.Fatal(err)
		}
		epochs = res.Epochs
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(nEvents*b.N)/secs, "events/sec")
		b.ReportMetric(float64(timeu.FromUnits(horizonUnits))*float64(b.N)/secs, "ticks/sec")
	}
	b.ReportMetric(float64(epochs), "epochs")
}
