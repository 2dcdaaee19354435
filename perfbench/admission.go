package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/online"
	"repro/internal/region"
	"repro/internal/task"
)

// residentGrid is the period grid of every resident and guest; its
// hyperperiod is 120, so the per-channel EDF streams stay short.
var residentGrid = []float64{4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120}

// residentSeed fixes the residents and the setup traffic: only the
// timed traffic comes from the run's seed.
const residentSeed = 2007

// shapePool is the number of guest shapes drawn for the setup traffic,
// and again for the timed traffic.
const shapePool = 4096

// modeWeights draws a guest's mode in proportion to the channels each
// mode offers (FT 1, FS 2, NF 4), so every channel sees the same
// offered load.
var modeWeights = [task.NumModes]float64{1, 2, 4}

type opKind uint8

const (
	kAdmit opKind = iota
	kRemove
)

// admOp is one pre-generated client request. An admit of n guests
// takes the shapes from shape on; pick seeds the victim choice of a
// removal.
type admOp struct {
	kind  opKind
	n     uint8
	shape uint32
	pick  uint64
}

type guestShape struct {
	c, t float64
	mode task.Mode
	ch   int
}

// admissionSpec sizes admit_churn.
type admissionSpec struct {
	residents int
	residentU float64
	guestU    [2]float64 // per-guest utilisation range
	preload   int        // guests admitted in setup before the warm-up
	warmup    int        // warm-up ops in setup
	ops       int        // timed ops
}

func admitChurnSpec(seconds int) admissionSpec {
	return admissionSpec{
		residents: 300, residentU: 1.2, guestU: [2]float64{0.0005, 0.003},
		preload: 40, warmup: 4000, ops: seconds * 42000,
	}
}

// tallies are the client's own counts of manager outcomes, compared
// with the manager's counters at every checkpoint.
type tallies struct {
	admitBatches, admitRejected, removeBatches int
	tasksAdmitted, tasksRemoved, offered       int
}

// admission drives one online.Manager with a single closed-loop client
// that alternates an admit of 1–8 guests with the removal that brings
// the guests back to the preload count.
type admission struct {
	spec admissionSpec

	// Inputs, generated before setup: shapes[:shapePool] and the
	// warm-up ops from residentSeed, the rest from the run's seed.
	residents task.Set
	shapes    []guestShape
	names     []string
	script    []admOp

	// Program state. cp stays reachable with the manager, so
	// heap_live_mb counts the compiled problem too.
	pr  core.Problem
	cp  *core.CompiledProblem
	m   *online.Manager
	reg *metrics.Registry
	met *online.Metrics

	// Client state: free guest names, guests in the system, tallies.
	free        []int32
	record      []task.Task
	recordName  []int32
	tally       tallies
	batch       []task.Task
	ids         []int32 // name indices of batch
	freed       []int32 // name indices of victims
	victims     []string
	victimTasks []task.Task

	// Traced pass: shadow channel profiles and layer tallies.
	shadow    [task.NumModes][]*analysis.Profile
	group     []task.Task
	pairsSum  float64
	pairsN    int
	liveSum   float64
	liveN     int
	passTally tallies
	passSnap  metrics.Snapshot
}

func newAdmission(spec admissionSpec, seed int64) (*admission, error) {
	a := &admission{spec: spec}
	// The residents are the deployed system and the seed drives its
	// traffic: with seeded residents the per-op cost of one seed differed
	// from another's by 10–20 % (seed 1 against seed 3), more than a
	// change to the program would claim. They are stratified: modes cycle
	// FT, FS, FS, NF, NF, NF, NF (one task per channel), periods cycle
	// through the grid, whose length is coprime to 7, so every mode gets
	// every period, and utilisations lie within ±25 % of the mean. The
	// setup traffic is fixed too, so every seed sets up the same way.
	fixed := rand.New(rand.NewSource(residentSeed))
	src := make(task.Set, spec.residents)
	for i := range src {
		mode := task.NF
		switch i % 7 {
		case 0:
			mode = task.FT
		case 1, 2:
			mode = task.FS
		}
		u := spec.residentU / float64(spec.residents) * (0.75 + 0.5*fixed.Float64())
		t := residentGrid[i%len(residentGrid)]
		src[i] = task.Task{Name: fmt.Sprintf("r%03d", i), C: u * t, T: t, D: t, Mode: mode}
	}
	a.residents = src

	rng := rand.New(rand.NewSource(seed))
	a.shapes = make([]guestShape, 2*shapePool)
	for i := range a.shapes {
		if i < shapePool {
			a.shapes[i] = a.newShape(fixed)
		} else {
			a.shapes[i] = a.newShape(rng)
		}
	}
	a.script = make([]admOp, spec.warmup+spec.ops)
	for i := range a.script {
		if i < spec.warmup {
			a.script[i] = newOp(fixed, i, 0)
		} else {
			a.script[i] = newOp(rng, i, shapePool)
		}
	}
	// Enough names for every guest that can be in the system at once:
	// the population is bounded by preload + 8, far below this.
	a.names = make([]string, 4096)
	for i := range a.names {
		a.names[i] = fmt.Sprintf("g%04d", i)
	}
	return a, nil
}

func (a *admission) newShape(rng *rand.Rand) guestShape {
	r := rng.Float64() * (modeWeights[0] + modeWeights[1] + modeWeights[2])
	mode := task.FT
	for _, md := range task.Modes() {
		if r < modeWeights[md] {
			mode = md
			break
		}
		r -= modeWeights[md]
	}
	sh := guestShape{mode: mode, ch: rng.Intn(mode.Channels())}
	sh.t = residentGrid[rng.Intn(len(residentGrid))]
	u := a.spec.guestU[0] + (a.spec.guestU[1]-a.spec.guestU[0])*rng.Float64()
	sh.c = u * sh.t
	return sh
}

// newOp draws op i: even ops admit 1–8 guests whose shapes start at a
// random index of the pool at base, odd ops remove.
func newOp(rng *rand.Rand, i, base int) admOp {
	op := admOp{shape: uint32(base + rng.Intn(shapePool-8)), pick: rng.Uint64()}
	if i%2 == 0 {
		op.kind, op.n = kAdmit, uint8(1+rng.Intn(8))
	} else {
		op.kind = kRemove
	}
	return op
}

func (a *admission) ops() int { return a.spec.ops }

func (a *admission) setup(tr *tracer) (digest, error) {
	sp := tr.begin(spSetupPartition, 0, -1)
	parted, err := repro.AutoPartition(a.residents, analysis.EDF)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("partition residents: %w", err)
	}
	pr, err := repro.NewProblem(parted, analysis.EDF, repro.PaperOverheadTotal)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(spSetupCompile, 0, -1)
	cp, err := pr.Compile()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(spSetupDesign, 0, -1)
	cfg, err := maxFlexibility(pr, cp)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(spSetupManager, 0, -1)
	m, err := online.NewManagerFromCompiled(cp, cfg)
	reg := metrics.New()
	met := online.NewMetrics(reg)
	if err == nil {
		m.SetMetrics(met)
	}
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	a.pr, a.cp, a.m, a.reg, a.met = pr, cp, m, reg, met
	a.free = a.free[:0]
	for i := len(a.names) - 1; i >= 0; i-- {
		a.free = append(a.free, int32(i))
	}
	a.record, a.recordName = a.record[:0], a.recordName[:0]
	a.tally = tallies{}

	sp = tr.begin(spSetupWarmup, 0, -1)
	d := newDigest()
	for i := 0; i < a.spec.preload; i += 8 {
		op := admOp{kind: kAdmit, n: uint8(min(8, a.spec.preload-i)), shape: uint32(i * 7919 % (shapePool - 8))}
		if _, out := a.do(&op, 0, nil); out == outFailed {
			tr.end(sp)
			return 0, fmt.Errorf("preload admit failed")
		}
	}
	for i := 0; i < a.spec.warmup; i++ {
		_, out := a.do(&a.script[i], 0, nil)
		if out == outFailed {
			tr.end(sp)
			return 0, fmt.Errorf("warm-up op %d failed", i)
		}
		d.u64(uint64(a.script[i].kind) | uint64(out)<<8 | uint64(len(a.record))<<16)
	}
	tr.end(sp)
	return d, nil
}

// maxFlexibility designs for the paper's second goal with the calls
// design.Both makes: period search, slot sizing, theorem re-check.
func maxFlexibility(pr core.Problem, cp *core.CompiledProblem) (core.Config, error) {
	p, _, err := region.MaxSlackBandwidthCompiled(cp, region.Options{})
	if err != nil {
		return core.Config{}, fmt.Errorf("max-flexibility period: %w", err)
	}
	cfg, err := cp.ConfigFor(p)
	if err != nil {
		return core.Config{}, err
	}
	if err := pr.Verify(cfg); err != nil {
		return core.Config{}, fmt.Errorf("design fails verification: %w", err)
	}
	return cfg, nil
}

func (a *admission) run(lo, hi int, lat []int64, d *digest, tr *tracer) (failed int) {
	for i := lo; i < hi; i++ {
		tr.op()
		op := &a.script[a.spec.warmup+i]
		ns, out := a.do(op, uint32(i), tr)
		lat[i] = ns
		if out == outFailed {
			failed++
		}
		d.u64(uint64(op.kind) | uint64(out)<<8 | uint64(len(a.record))<<16)
		if tr != nil {
			a.liveSum += a.met.LiveTasks.Value()
			a.liveN++
		}
	}
	return failed
}

// guest gives a guest shape the next free name.
func (a *admission) guest(sh guestShape) (task.Task, int32) {
	n := len(a.free) - 1
	if n < 0 {
		panic("perfbench: guest name pool exhausted")
	}
	id := a.free[n]
	a.free = a.free[:n]
	return task.Task{Name: a.names[id], C: sh.c, T: sh.t, D: sh.t, Mode: sh.mode, Channel: sh.ch}, id
}

// xorshift steps the victim-choice generator.
func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// do performs one client request and returns the latency of the
// manager call and its outcome.
func (a *admission) do(op *admOp, id uint32, tr *tracer) (int64, outcome) {
	if op.kind == kRemove {
		return a.remove(op, id, tr)
	}
	a.batch, a.ids = a.batch[:0], a.ids[:0]
	for j := 0; j < int(op.n); j++ {
		t, nid := a.guest(a.shapes[int(op.shape)+j])
		a.batch, a.ids = append(a.batch, t), append(a.ids, nid)
	}
	a.tally.offered += len(a.batch)
	return a.admit(id, tr)
}

func (a *admission) admit(id uint32, tr *tracer) (int64, outcome) {
	sp := tr.begin(spAdmit, id, -1)
	t0 := nanotime()
	err := a.m.AdmitBatch(a.batch)
	ns := nanotime() - t0
	tr.end(sp)
	out := classify(err)
	switch out {
	case outOK:
		a.tally.admitBatches++
		a.tally.tasksAdmitted += len(a.batch)
		a.record = append(a.record, a.batch...)
		a.recordName = append(a.recordName, a.ids...)
	case outRejected:
		a.tally.admitRejected++
		a.free = append(a.free, a.ids...)
	}
	if tr != nil && out != outFailed {
		t0 := nanotime()
		a.mirror(a.batch, true, out == outRejected, id, sp, tr)
		tr.exclude(t0)
	}
	return ns, out
}

// remove takes out the guests admitted since the population was last
// at the preload count (at least one), chosen by the op's pick.
func (a *admission) remove(op *admOp, id uint32, tr *tracer) (int64, outcome) {
	k := min(max(1, len(a.record)-a.spec.preload), len(a.record))
	a.victims, a.victimTasks, a.freed = a.victims[:0], a.victimTasks[:0], a.freed[:0]
	x := op.pick | 1
	for j := 0; j < k; j++ {
		i := int(xorshift(&x) % uint64(len(a.record)))
		t := a.record[i]
		a.victims = append(a.victims, t.Name)
		a.victimTasks = append(a.victimTasks, t)
		a.freed = append(a.freed, a.recordName[i])
		last := len(a.record) - 1
		a.record[i], a.recordName[i] = a.record[last], a.recordName[last]
		a.record, a.recordName = a.record[:last], a.recordName[:last]
	}
	sp := tr.begin(spRemove, id, -1)
	t0 := nanotime()
	err := a.m.RemoveBatch(a.victims)
	ns := nanotime() - t0
	tr.end(sp)
	if classify(err) != outOK {
		return ns, outFailed // every victim is in the system: any error is wrong
	}
	if len(a.victims) > 0 { // an empty batch is a no-op the manager does not count
		a.tally.removeBatches++
		a.tally.tasksRemoved += len(a.victims)
	}
	a.free = append(a.free, a.freed...)
	if tr != nil {
		t0 := nanotime()
		a.mirror(a.victimTasks, false, false, id, sp, tr)
		tr.exclude(t0)
	}
	return ns, outOK
}

// ---- shadow profiles (traced pass) ----

// initShadow compiles one exclusive profile per channel from the live
// set, in the state the manager's own channel profiles hold.
func (a *admission) initShadow() error {
	live := a.m.Tasks()
	for _, mode := range task.Modes() {
		a.shadow[mode] = make([]*analysis.Profile, mode.Channels())
		for ch := range a.shadow[mode] {
			pf, err := analysis.CompileMutable(live.ByChannel(mode, ch), a.pr.Alg)
			if err != nil {
				return err
			}
			a.shadow[mode][ch] = pf
		}
	}
	return nil
}

// mirror repeats, on the shadow profiles, the analysis work the
// manager did inside an admit or remove: one in-place patch plus MinQ
// per touched channel in (mode, channel) order, the inverse patch when
// the commit rejected the admission, and the memory-ratio
// consolidation after a commit. Each channel's work is one
// analysis.patch span under the call's span.
func (a *admission) mirror(tasks []task.Task, add, rejected bool, id uint32, parent int32, tr *tracer) {
	p := a.m.Config().P
	for _, mode := range task.Modes() {
		for ch, pf := range a.shadow[mode] {
			a.group = a.group[:0]
			for _, t := range tasks {
				if t.Mode == mode && t.Channel == ch {
					a.group = append(a.group, t)
				}
			}
			if len(a.group) == 0 {
				continue
			}
			sp := tr.begin(spPatch, id, parent)
			var err error
			if add {
				err = pf.AddTasks(a.group)
			} else {
				err = pf.DropTasks(a.group)
			}
			_ = pf.MinQ(p)
			if err == nil && rejected {
				err = pf.DropTasks(a.group)
			}
			if err == nil && !rejected && pf.MemStats().Ratio() >= online.DefaultConsolidateRatio {
				pf, err = analysis.CompileMutable(pf.Tasks(), a.pr.Alg)
				if err == nil {
					a.shadow[mode][ch] = pf
				}
			}
			tr.end(sp)
			if err != nil {
				panic(fmt.Sprintf("perfbench: shadow patch %v/%d: %v", mode, ch, err))
			}
			a.pairsSum += float64(pf.Pairs())
			a.pairsN++
		}
	}
}

// ---- checks ----

func (a *admission) check() error {
	m := a.m
	if err := m.Verify(); err != nil {
		return fmt.Errorf("Verify: %w", err)
	}
	if err := m.CheckProfiles(); err != nil {
		return fmt.Errorf("CheckProfiles: %w", err)
	}
	live, parked, cfg := m.Tasks(), m.Parked(), m.Config()
	if cfg.Q.Total() > cfg.P+core.SlotFitTol {
		return fmt.Errorf("slots %.9f exceed the period %.9f", cfg.Q.Total(), cfg.P)
	}
	// The client never revokes, so nothing may be parked or withdrawn.
	if len(parked) != 0 || m.Revoked() != 0 {
		return fmt.Errorf("%d tasks parked and %g capacity revoked without a revocation", len(parked), m.Revoked())
	}
	// live == residents ∪ the client's record, no duplicates.
	seen := make(map[string]int, len(live))
	for _, t := range live {
		seen[t.Name]++
	}
	want := len(a.residents) + len(a.record)
	if len(seen) != want || len(live) != want {
		return fmt.Errorf("system holds %d live tasks (%d names), client expects %d", len(live), len(seen), want)
	}
	for _, t := range a.residents {
		if seen[t.Name] != 1 {
			return fmt.Errorf("resident %s present %d times", t.Name, seen[t.Name])
		}
	}
	for _, t := range a.record {
		if seen[t.Name] != 1 {
			return fmt.Errorf("guest %s present %d times", t.Name, seen[t.Name])
		}
	}
	// Bit-identity with a from-scratch solve of the live set.
	fresh, err := core.Problem{Tasks: live, Alg: a.pr.Alg, O: a.pr.O}.Compile()
	if err != nil {
		return fmt.Errorf("oracle compile: %w", err)
	}
	oracle, err := fresh.ConfigFor(cfg.P)
	if err != nil {
		return fmt.Errorf("oracle ConfigFor: %w", err)
	}
	if oracle != cfg {
		return fmt.Errorf("live config %+v differs from fresh ConfigFor %+v", cfg, oracle)
	}
	// Counters equal the client's tallies; gauges equal the live state.
	s := a.reg.Snapshot()
	t := a.tally
	for _, c := range []struct {
		name string
		want int
	}{
		{"online.admit.batches", t.admitBatches},
		{"online.admit.rejected", t.admitRejected},
		{"online.remove.batches", t.removeBatches},
		{"online.remove.rejected", 0},
		{"online.partial.batches", 0},
		{"online.tasks.admitted", t.tasksAdmitted},
		{"online.tasks.removed", t.tasksRemoved},
		{"online.tasks.shed", 0},
		{"online.revokes", 0},
		{"online.tasks.evicted", 0},
	} {
		if got := s.Counters[c.name]; got != uint64(c.want) {
			return fmt.Errorf("counter %s = %d, client tallied %d", c.name, got, c.want)
		}
	}
	for _, g := range []struct {
		name string
		want float64
	}{
		{"online.live_tasks", float64(len(live))},
		{"online.parked_tasks", 0},
		{"online.revoked_capacity", 0},
		{"online.slack", m.Slack()},
	} {
		if got := s.Gauges[g.name]; math.Abs(got-g.want) > 1e-9 {
			return fmt.Errorf("gauge %s = %g, live state says %g", g.name, got, g.want)
		}
	}
	// The shadow profiles must size every slot exactly as the manager.
	if a.shadow[task.FT] != nil {
		for _, mode := range task.Modes() {
			worst := 0.0
			for _, pf := range a.shadow[mode] {
				worst = math.Max(worst, pf.MinQ(cfg.P))
			}
			if q := worst + a.pr.O.Of(mode); q != cfg.Q.Of(mode) {
				return fmt.Errorf("shadow sizes %v slot %g, manager %g", mode, q, cfg.Q.Of(mode))
			}
		}
	}
	return nil
}

func (a *admission) final(d *digest) {
	cfg := a.m.Config()
	d.f64(cfg.P)
	d.f64(cfg.Q.FT)
	d.f64(cfg.Q.FS)
	d.f64(cfg.Q.NF)
	for _, t := range a.m.Tasks() {
		d.str(t.Name)
	}
}

func (a *admission) beginPass(tr *tracer) error {
	a.passTally = a.tally
	a.passSnap = a.reg.Snapshot()
	a.pairsSum, a.pairsN, a.liveSum, a.liveN = 0, 0, 0, 0
	a.shadow = [task.NumModes][]*analysis.Profile{}
	if tr != nil {
		return a.initShadow()
	}
	return nil
}

// acceptance is tasks admitted over tasks offered in the timed pass.
func (a *admission) acceptance() (float64, float64) {
	return float64(a.tally.tasksAdmitted - a.passTally.tasksAdmitted), float64(a.tally.offered - a.passTally.offered)
}

// release drops the inputs and the client's state; the manager, its
// compiled problem and its metrics stay.
func (a *admission) release() {
	a.residents, a.script, a.shapes, a.names = nil, nil, nil, nil
	a.free, a.record, a.recordName, a.batch, a.ids = nil, nil, nil, nil, nil
	a.freed, a.victims, a.victimTasks, a.group = nil, nil, nil, nil
	a.shadow = [task.NumModes][]*analysis.Profile{}
}

func (a *admission) layers(ops int, sp *[numSpanNames]spanStats) map[string]float64 {
	s := a.reg.Snapshot()
	t, t0 := a.tally, a.passTally
	delta := func(name string) float64 { return float64(s.Counters[name] - a.passSnap.Counters[name]) }
	histMeanUs := func(name string) float64 {
		h, h0 := s.Histograms[name], a.passSnap.Histograms[name]
		return ratio(float64(h.Sum-h0.Sum), float64(h.Count-h0.Count)) / 1e3
	}
	ar, rm := sp[spAdmit], sp[spRemove]
	calls := ar.childSeen + rm.childSeen
	kops := float64(ops) / 1e3
	rejected := float64(t.admitRejected - t0.admitRejected)
	return map[string]float64{
		"online.admit_us":                 ar.meanUs(),
		"online.remove_us":                rm.meanUs(),
		"online.self_us":                  ratio(float64(ar.selfNs+rm.selfNs), float64(calls)) / 1e3,
		"analysis.patch_us":               ratio(float64(ar.childNs+rm.childNs), float64(calls)) / 1e3,
		"online.patch_section_us":         histMeanUs("online.patch_ns"),
		"online.commit_section_us":        histMeanUs("online.commit_ns"),
		"online.live_tasks":               ratio(a.liveSum, float64(a.liveN)),
		"online.reject_ratio":             ratio(rejected, rejected+float64(t.admitBatches-t0.admitBatches)),
		"envelope.fallbacks_per_kop":      delta("online.envelope.fallbacks") / kops,
		"envelope.consolidations_per_kop": delta("online.consolidations") / kops,
		"envelope.pairs_kept":             ratio(a.pairsSum, float64(a.pairsN)),
		"envelope.mem_ratio":              s.Gauges["online.envelope.mem_ratio"],
	}
}
