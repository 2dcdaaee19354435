package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/partition"
	"repro/internal/region"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// designSpec sizes design_space.
type designSpec struct {
	sets   int // distinct task sets from the run's seed, planned in turn
	warmup int // task sets from warmupSeed, each planned once in setup
	ops    int // timed plans
}

func designSpecFor(seconds int) designSpec {
	return designSpec{sets: 2048, warmup: 64, ops: seconds * 900}
}

// warmupSeed fixes the warm-up sets, so every seed sets up the same
// way: with the first sets of the seed's own pool, setup_s of one seed
// was 60 % above another's.
const warmupSeed = 2007

const (
	minTasks, maxTasks = 10, 24   // tasks per set
	minUtil, maxUtil   = 0.8, 2.6 // utilisation ladder, spread evenly over the sets
	bothEvery          = 4        // compare with design.Both on every this-many-th set
)

// designGrid bounds every generated set's hyperperiod at 60, so one
// fault-free hyperperiod of simulation stays short.
var designGrid = []float64{5, 10, 15, 20, 30, 60}

// planVerdict is the fate of one planned set.
type planVerdict uint8

const (
	planVerified    planVerdict = iota // designed, verified, simulated miss-free
	planUnplaceable                    // the partition heuristic placed no channel for some task
	planInfeasible                     // partitioned, but no period satisfies Eq. (15)
	planFailed                         // any other error: a failed op
)

// plan is the output of planning one set.
type plan struct {
	set              int
	verdict          planVerdict
	pr               core.Problem
	cfgMax, cfgSlack core.Config
	pMax, pSlack     float64
	whatIf           [3]core.Config // zero Config where the what-if does not fit
	whatIfOK         [3]bool
	released, missed int
	err              error
	// wrong marks a planFailed whose output failed a check (a design
	// that fails Verify, a simulation that errs): the run is incorrect,
	// not only short of an op.
	wrong bool
	// state is what a verified plan leaves behind; the workload moves
	// it into its kept ring.
	state *planState
}

// keptPlans is how many verified plans' state design_space keeps
// reachable, as a planner that keeps its recent designs would. The
// state of one plan depends on its set; heap_live_mb reads the state of
// many.
const keptPlans = 32

// planState is what a verified plan leaves behind: the compiled
// problem, the what-if compiled problems and the simulation result.
type planState struct {
	cp     *core.CompiledProblem
	whatIf [3]*core.CompiledProblem
	res    *sim.Result
}

func (p *plan) digest() digest {
	d := newDigest()
	d.u64(uint64(p.verdict))
	for _, c := range []core.Config{p.cfgMax, p.cfgSlack, p.whatIf[0], p.whatIf[1], p.whatIf[2]} {
		d.f64(c.P)
		d.f64(c.Q.FT)
		d.f64(c.Q.FS)
		d.f64(c.Q.NF)
	}
	d.u64(uint64(p.released) | uint64(p.missed)<<32)
	return d
}

// designSpace plans a pool of generated task sets end to end.
type designSpace struct {
	spec designSpec

	// Inputs: sets[:warmup] from warmupSeed, the rest from the seed.
	sets    []task.Set
	adds    [][]task.Task // per set: three what-if guests
	removes [][2]int      // per set: indices of two tasks to drop

	// Program state: the digest of the first plan of every set, the
	// first plans not yet checked against the oracles, the last plan
	// made and the state of the last keptPlans verified plans.
	expect  []digest
	known   []bool
	pending []*plan
	last    *plan
	kept    [keptPlans]*planState
	nKept   int

	tally, passTally designTally
	failures         []string
}

type designTally struct {
	planned, verified, unplaceable, infeasible int
}

func newDesignSpace(spec designSpec, seed int64) (*designSpace, error) {
	ds := &designSpace{spec: spec}
	fixed := rand.New(rand.NewSource(warmupSeed))
	seeded := rand.New(rand.NewSource(seed))
	for k := 0; k < spec.warmup+spec.sets; k++ {
		// Utilisations climb an even ladder, set sizes cycle through
		// their range and modes cycle FT, FS, FS, NF, NF, NF, NF (one task
		// per channel), so the share of infeasible sets and the mix of set
		// sizes are properties of the spec, not of the seed. The warm-up
		// sets climb a ladder of their own.
		rng, rung, rungs := seeded, k-spec.warmup, spec.sets
		if k < spec.warmup {
			rng, rung, rungs = fixed, k, spec.warmup
		}
		u := minUtil + (maxUtil-minUtil)*(float64(rung)+0.5)/float64(rungs)
		n := minTasks + rung%(maxTasks-minTasks+1)
		s, err := workload.Generate(workload.Config{
			N: n, TotalUtilization: u, Periods: designGrid,
			ModeShare: struct{ FT, FS, NF float64 }{modeWeights[task.FT], modeWeights[task.FS], modeWeights[task.NF]},
			Seed:      rng.Int63(),
		})
		if err != nil {
			return nil, fmt.Errorf("generate set %d: %w", k, err)
		}
		for i := range s {
			s[i].Mode = [7]task.Mode{task.FT, task.FS, task.FS, task.NF, task.NF, task.NF, task.NF}[i%7]
			s[i].Channel = 0
		}
		ds.sets = append(ds.sets, s)
		var adds []task.Task
		for j := 0; j < 3; j++ {
			md := task.Modes()[rng.Intn(task.NumModes)]
			t := designGrid[rng.Intn(len(designGrid))]
			adds = append(adds, task.Task{
				Name: fmt.Sprintf("what-if-%d", j), C: (0.01 + 0.05*rng.Float64()) * t, T: t, D: t,
				Mode: md, Channel: rng.Intn(md.Channels()),
			})
		}
		ds.adds = append(ds.adds, adds)
		i := rng.Intn(n)
		ds.removes = append(ds.removes, [2]int{i, (i + 1 + rng.Intn(n-1)) % n})
	}
	return ds, nil
}

func (ds *designSpace) ops() int { return ds.spec.ops }

// planSet runs the whole design chain on set k: partition, compile,
// both period searches, slot sizing, theorem re-check, what-if
// additions and a removal on the compiled problem, and one fault-free
// hyperperiod of the max-flexibility design.
func (ds *designSpace) planSet(k int, id uint32, tr *tracer) *plan {
	p := &plan{set: k}
	fail := func(err error) *plan { p.verdict, p.err = planFailed, err; return p }

	sp := tr.begin(spPartition, id, -1)
	parted, err := repro.AutoPartition(ds.sets[k], analysis.EDF)
	tr.end(sp)
	if errors.Is(err, partition.ErrUnplaceable) {
		p.verdict = planUnplaceable
		return p
	} else if err != nil {
		return fail(err)
	}
	pr, err := repro.NewProblem(parted, analysis.EDF, repro.PaperOverheadTotal)
	if err != nil {
		return fail(err)
	}
	p.pr = pr
	sp = tr.begin(spCompile, id, -1)
	cp, err := pr.Compile()
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin(spSearch, id, -1)
	p.pMax, err = region.MaxFeasiblePeriodCompiled(cp, region.Options{})
	if err == nil {
		p.pSlack, _, err = region.MaxSlackBandwidthCompiled(cp, region.Options{})
	}
	tr.end(sp)
	if errors.Is(err, region.ErrInfeasible) {
		p.verdict = planInfeasible
		return p
	} else if err != nil {
		return fail(err)
	}
	sp = tr.begin(spConfigFor, id, -1)
	p.cfgMax, err = cp.ConfigFor(p.pMax)
	if err == nil {
		p.cfgSlack, err = cp.ConfigFor(p.pSlack)
	}
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin(spVerify, id, -1)
	err = pr.Verify(p.cfgMax)
	if err == nil {
		err = pr.Verify(p.cfgSlack)
	}
	tr.end(sp)
	if err != nil {
		p.wrong = true
		return fail(fmt.Errorf("design fails Verify: %w", err))
	}

	// What-ifs on the immutable compiled problem: one guest, two
	// guests, and two residents leaving. A what-if that does not fit the
	// max-flexibility period is an answer, not a failure.
	st := &planState{cp: cp}
	sp = tr.begin(spWhatIf, id, -1)
	adds := ds.adds[k]
	rm := ds.removes[k]
	for j := 0; j < 3; j++ {
		var w *core.CompiledProblem
		switch j {
		case 0:
			w, err = cp.WithTasks(adds[:1])
		case 1:
			w, err = cp.WithTasks(adds[1:3])
		default:
			w, err = cp.WithoutTasks([]string{parted[rm[0]].Name, parted[rm[1]].Name})
		}
		if err != nil {
			tr.end(sp)
			return fail(fmt.Errorf("what-if %d: %w", j, err))
		}
		st.whatIf[j] = w
		if cfg, err := w.ConfigFor(p.pSlack); err == nil {
			p.whatIf[j], p.whatIfOK[j] = cfg, true
		}
	}
	tr.end(sp)

	sp = tr.begin(spRun, id, -1)
	s, err := sim.New(p.cfgSlack, parted, analysis.EDF)
	var res *sim.Result
	if err == nil {
		res, err = s.Run(sim.Options{})
	}
	tr.end(sp)
	if err != nil {
		p.wrong = true
		return fail(fmt.Errorf("simulate: %w", err))
	}
	st.res = res
	p.released, p.missed = res.TotalReleased(), res.TotalMisses()
	p.verdict, p.state = planVerified, st
	return p
}

func (ds *designSpace) count(p *plan) {
	ds.tally.planned++
	switch p.verdict {
	case planVerified:
		ds.tally.verified++
	case planUnplaceable:
		ds.tally.unplaceable++
	case planInfeasible:
		ds.tally.infeasible++
	}
}

func (ds *designSpace) setup(tr *tracer) (digest, error) {
	ds.tally = designTally{}
	ds.expect = make([]digest, len(ds.sets))
	ds.known = make([]bool, len(ds.sets))
	ds.pending, ds.last = nil, nil
	ds.kept, ds.nKept = [keptPlans]*planState{}, 0
	d := newDigest()
	// The warm-up plans each warm-up set once; its partition, compile
	// and design spans count towards the setup layers of the same names.
	sp := tr.begin(spSetupWarmup, 0, -1)
	for k := 0; k < ds.spec.warmup; k++ {
		p := ds.planSet(k, uint32(k), tr)
		if p.verdict == planFailed {
			tr.end(sp)
			return 0, fmt.Errorf("warm-up plan of set %d: %w", k, p.err)
		}
		ds.remember(p)
		ds.keep(p)
		d.u64(uint64(ds.expect[k]))
	}
	tr.end(sp)
	ds.tally = designTally{}
	return d, nil
}

// remember makes a set's first plan the reference for every later
// plan of it, and queues it for the oracle checks.
func (ds *designSpace) remember(p *plan) {
	ds.expect[p.set], ds.known[p.set] = p.digest(), true
	ds.pending = append(ds.pending, p)
}

func (ds *designSpace) run(lo, hi int, lat []int64, d *digest, tr *tracer) (failed int) {
	for i := lo; i < hi; i++ {
		tr.op()
		// A prime stride visits the utilisation ladder evenly in every
		// segment of the run, not one band of it per segment.
		k := ds.spec.warmup + i*1237%ds.spec.sets
		t0 := nanotime()
		p := ds.planSet(k, uint32(i), tr)
		lat[i] = nanotime() - t0
		if ds.record(i, k, p) {
			failed++
			continue
		}
		d.u64(uint64(ds.expect[k]))
	}
	return failed
}

// record books op i's plan of set k and reports whether the op failed.
// A failed op whose output failed a check also fails the run.
func (ds *designSpace) record(i, k int, p *plan) (failed bool) {
	ds.count(p)
	if p.verdict == planFailed {
		if p.wrong {
			ds.failures = append(ds.failures, fmt.Sprintf("plan %d of set %d: %v", i, k, p.err))
		}
		return true
	}
	if !ds.known[k] {
		ds.remember(p)
	} else if p.digest() != ds.expect[k] {
		ds.failures = append(ds.failures, fmt.Sprintf("plan %d of set %d differs from its first plan", i, k))
	}
	ds.keep(p)
	ds.last = p
	return false
}

// keep moves a verified plan's state into the kept ring, replacing the
// oldest.
func (ds *designSpace) keep(p *plan) {
	if p.state != nil {
		ds.kept[ds.nKept%keptPlans] = p.state
		ds.nKept++
		p.state = nil
	}
}

// check runs the oracles on every set's first plan: zero misses in the
// simulated hyperperiod, the same designs design.Both finds (on every
// bothEvery-th set), and what-if configurations equal to a fresh
// compile of the changed set. Later plans of a set must reproduce its
// first one bit for bit, which run checks as it goes.
func (ds *designSpace) check() error {
	if len(ds.failures) > 0 {
		return fmt.Errorf("%s", ds.failures[0])
	}
	for _, p := range ds.pending {
		k := p.set
		if p.verdict != planVerified {
			continue
		}
		if p.missed != 0 {
			return fmt.Errorf("set %d: %d misses in a fault-free hyperperiod", k, p.missed)
		}
		if k%bothEvery == 0 {
			maxP, maxS, err := design.Both(p.pr, region.Options{})
			if err != nil {
				return fmt.Errorf("set %d: design.Both: %w", k, err)
			}
			if maxP.Config != p.cfgMax || maxS.Config != p.cfgSlack {
				return fmt.Errorf("set %d: designs %+v / %+v differ from design.Both %+v / %+v",
					k, p.cfgMax, p.cfgSlack, maxP.Config, maxS.Config)
			}
		}
		for j := 0; j < 3; j++ {
			var tasks task.Set
			switch j {
			case 0:
				tasks = append(append(task.Set(nil), p.pr.Tasks...), ds.adds[k][0])
			case 1:
				tasks = append(append(task.Set(nil), p.pr.Tasks...), ds.adds[k][1:3]...)
			default:
				rm := ds.removes[k]
				for i, t := range p.pr.Tasks {
					if i != rm[0] && i != rm[1] {
						tasks = append(tasks, t)
					}
				}
			}
			fresh, err := core.Problem{Tasks: tasks, Alg: p.pr.Alg, O: p.pr.O}.Compile()
			if err != nil {
				return fmt.Errorf("set %d what-if %d: oracle compile: %w", k, j, err)
			}
			cfg, err := fresh.ConfigFor(p.pSlack)
			if (err == nil) != p.whatIfOK[j] || cfg != p.whatIf[j] {
				return fmt.Errorf("set %d what-if %d: %+v (fits %v) differs from a fresh compile %+v (err %v)",
					k, j, p.whatIf[j], p.whatIfOK[j], cfg, err)
			}
		}
	}
	ds.pending = nil
	return nil
}

func (ds *designSpace) final(d *digest) {
	if ds.last != nil {
		d.u64(uint64(ds.last.digest()))
	}
}

func (ds *designSpace) beginPass(tr *tracer) error {
	ds.passTally = ds.tally
	return nil
}

// acceptance is sets with a verified design over sets planned.
func (ds *designSpace) acceptance() (float64, float64) {
	return float64(ds.tally.verified - ds.passTally.verified), float64(ds.tally.planned - ds.passTally.planned)
}

// release drops the inputs and the checker's records; the kept plan
// state stays.
func (ds *designSpace) release() {
	ds.sets, ds.adds, ds.removes, ds.expect, ds.known = nil, nil, nil, nil, nil
	ds.pending, ds.failures = nil, nil
}

func (ds *designSpace) layers(ops int, sp *[numSpanNames]spanStats) map[string]float64 {
	t, t0 := ds.tally, ds.passTally
	planned := float64(t.planned - t0.planned)
	placed := planned - float64(t.unplaceable-t0.unplaceable)
	return map[string]float64{
		"partition.assign_us":     sp[spPartition].meanUs(),
		"partition.fail_ratio":    ratio(float64(t.unplaceable-t0.unplaceable), planned),
		"region.search_us":        sp[spSearch].meanUs(),
		"region.infeasible_ratio": ratio(float64(t.infeasible-t0.infeasible), placed),
		"core.compile_us":         sp[spCompile].meanUs(),
		"core.configfor_us":       sp[spConfigFor].meanUs(),
		"core.verify_us":          sp[spVerify].meanUs(),
		"core.whatif_us":          sp[spWhatIf].meanUs(),
		"sim.run_us":              sp[spRun].meanUs(),
	}
}
