// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload, generated from a seed, through the public
// functions of partition, core, region, online and sim, checks the
// outputs against the repository's own oracles, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced pass) as the last line of its output:
//
//	bash perfbench/run.sh --workload admit_churn --seed 1 --seconds 40 --trace 0
//
// Workloads (NOTES.md gives the reasons):
//
//	admit_churn   on-grid admit/remove churn on a 300-task design
//	design_space  partition-to-simulation planning of generated sets
//
// Every run does fixed work: the op count is a fixed rate per second of
// --seconds, never a time budget, so counts and accept_ratio are exact
// for a seed. The client is one goroutine issuing its next call when the
// previous one returns, at GOMAXPROCS=1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runner is one benchmark workload. Its inputs are generated from the
// seed when it is constructed, before any setup.
type runner interface {
	// setup builds fresh program state from the inputs, including one
	// warm-up pass of the op mix, and returns a digest of the warm-up
	// verdicts.
	setup(tr *tracer) (digest, error)
	ops() int
	// beginPass marks the start of a timed pass; with a tracer the
	// workload prepares its traced-only state.
	beginPass(tr *tracer) error
	// run executes timed ops [lo, hi), writing each op's latency into
	// lat and folding its verdict into d; it returns the failed ops.
	run(lo, hi int, lat []int64, d *digest, tr *tracer) (failed int)
	// check is the untimed output oracle.
	check() error
	// final folds the final program state into d.
	final(d *digest)
	// acceptance returns what was admitted and what was offered in
	// the current pass.
	acceptance() (admitted, offered float64)
	// release drops the inputs before the live heap is read.
	release()
	// layers computes the workload's per-layer metrics after a traced
	// pass of ops ops.
	layers(ops int, spans *[numSpanNames]spanStats) map[string]float64
}

var clockBase = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// checkpoints is the number of untimed checks per timed pass. After
// each one the run also sets up a fresh copy of the workload, so setup_s
// is the median of checkpoints+1 setups spread over the whole run.
const checkpoints = 16

// subSegments is the number of timed segments between two checkpoints:
// throughput and p50 are read over the checkpoints*subSegments segments
// of a run.
const subSegments = 4

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"throughput_ops_per_s", "1/s"}, {"op_p50_us", "us"},
	{"op_p99_us", "us"}, {"heap_live_mb", "MB"}, {"accept_ratio", "1"},
}

var perLayer = []metricDef{
	{"setup.partition_s", "s"}, {"setup.compile_s", "s"}, {"setup.design_s", "s"},
	{"setup.manager_s", "s"}, {"setup.warmup_s", "s"},
	{"online.admit_us", "us"}, {"online.remove_us", "us"}, {"online.self_us", "us"},
	{"online.patch_section_us", "us"}, {"online.commit_section_us", "us"},
	{"online.live_tasks", "count"}, {"online.reject_ratio", "1"},
	{"analysis.patch_us", "us"},
	{"envelope.fallbacks_per_kop", "count"}, {"envelope.consolidations_per_kop", "count"},
	{"envelope.pairs_kept", "count"}, {"envelope.mem_ratio", "1"},
	{"sim.run_us", "us"},
	{"partition.assign_us", "us"}, {"partition.fail_ratio", "1"},
	{"region.search_us", "us"}, {"region.infeasible_ratio", "1"},
	{"core.compile_us", "us"}, {"core.configfor_us", "us"}, {"core.verify_us", "us"}, {"core.whatif_us", "us"},
	{"runtime.allocs_per_op", "count"}, {"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"}, {"runtime.gc_pause_us_per_kop", "us"},
	{"trace.overhead_pct", "%"}, {"host.ref_ns", "ns"},
}

// setupLayer maps the spans recorded during setup onto the setup
// layers: design_space's warm-up plans run the same calls as its ops.
var setupLayer = map[spanName]string{
	spSetupPartition: "setup.partition_s", spPartition: "setup.partition_s",
	spSetupCompile: "setup.compile_s", spCompile: "setup.compile_s",
	spSetupDesign: "setup.design_s", spSearch: "setup.design_s", spConfigFor: "setup.design_s", spVerify: "setup.design_s",
	spSetupManager: "setup.manager_s",
	spSetupWarmup:  "setup.warmup_s",
}

func newRunner(name string, seed int64, seconds int) (runner, error) {
	switch name {
	case "admit_churn":
		return newAdmission(admitChurnSpec(seconds), seed)
	case "design_space":
		return newDesignSpace(designSpecFor(seconds), seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passResult is one timed pass over the op sequence.
type passResult struct {
	ops, failed int
	wallNs      int64
	segEnd      []int     // op index ending each segment
	segRate     []float64 // ops per second of each segment
	heapMB      []float64 // live heap after each checkpoint, harness included
	lat         []int64
	rt          rtStats
	digest      digest
	accept      float64
}

// timedPass runs the workload's op sequence in checkpoints intervals of
// subSegments timed segments each, checking outputs between the
// intervals. A non-nil between runs after each checkpoint's heap
// reading.
func timedPass(w runner, tr *tracer, between func() error) (passResult, error) {
	n := w.ops()
	p := passResult{ops: n, lat: make([]int64, n), digest: newDigest()}
	if err := w.beginPass(tr); err != nil {
		return p, err
	}
	const segments = checkpoints * subSegments
	for c := 0; c < checkpoints; c++ {
		runtime.GC()
		rt0 := readRT()
		for k := c * subSegments; k < (c+1)*subSegments; k++ {
			lo, hi := n*k/segments, n*(k+1)/segments
			var ex0 int64
			if tr != nil {
				ex0 = tr.excludedNs
			}
			t0 := nanotime()
			p.failed += w.run(lo, hi, p.lat, &p.digest, tr)
			seg := nanotime() - t0
			if tr != nil {
				seg -= tr.excludedNs - ex0
			}
			p.wallNs += seg
			p.segEnd = append(p.segEnd, hi)
			p.segRate = append(p.segRate, float64(hi-lo)/(float64(seg)/1e9))
		}
		p.rt = p.rt.add(readRT().sub(rt0))
		if err := w.check(); err != nil {
			return p, fmt.Errorf("checkpoint %d: %w", c, err)
		}
		p.heapMB = append(p.heapMB, liveHeapMB())
		if between != nil {
			if err := between(); err != nil {
				return p, fmt.Errorf("after checkpoint %d: %w", c, err)
			}
		}
	}
	w.final(&p.digest)
	admitted, offered := w.acceptance()
	p.accept = ratio(admitted, offered)
	return p, nil
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "run length: the op count is a fixed rate times this")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced pass")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	// One client, one P: with GOMAXPROCS=2 the p99 of the allocating
	// workloads swung 2–3× with the collector's placement (NOTES.md).
	runtime.GOMAXPROCS(1)
	// The collector's pacing is the default whatever GOGC or GOMEMLIMIT
	// the environment sets, so every host runs the same GC policy.
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	res, err := bench(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res == nil {
			os.Exit(1)
		}
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// setups times the setups of one run; every one must produce the
// same warm-up verdicts.
type setups struct {
	traced bool
	secs   []float64
	layers map[string][]float64 // traced: per-layer seconds of each setup
	digest digest
}

// run sets w up from its fresh inputs and records the time taken.
func (s *setups) run(w runner) error {
	runtime.GC()
	var tr *tracer
	if s.traced {
		tr = newTracer(1 << 14)
	}
	t0 := nanotime()
	d, err := w.setup(tr)
	s.secs = append(s.secs, float64(nanotime()-t0)/1e9)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if len(s.secs) == 1 {
		s.digest = d
	} else if d != s.digest {
		return fmt.Errorf("setup %d warm-up digest %x differs from the first %x", len(s.secs), d, s.digest)
	}
	if tr != nil {
		sums := map[string]float64{}
		for _, sp := range tr.spans {
			if l, ok := setupLayer[sp.name]; ok {
				sums[l] += float64(sp.end-sp.start) / 1e9
			}
		}
		for l, v := range sums {
			s.layers[l] = append(s.layers[l], v)
		}
	}
	return nil
}

// bench runs one workload and returns its result: it sets the workload
// up, runs its timed pass (twice when traced) and computes the reported
// metrics. A non-nil result with a non-nil error is a run whose outputs
// failed a check.
func bench(name string, seed int64, seconds int, traced bool) (*result, error) {
	w, err := newRunner(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	ref0 := hostRefNs()
	st := &setups{traced: traced, layers: map[string][]float64{}}
	if err := st.run(w); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricJSON{}}
	fail := func(err error) (*result, error) {
		res.Correct = false
		return res, err
	}
	if err := w.check(); err != nil {
		return fail(fmt.Errorf("after setup: %w", err))
	}

	// Host speed drifts in phases of seconds, so the other setups are
	// spread over the timed pass, one after each checkpoint, each on a
	// copy whose inputs are generated afresh outside the timing.
	again := func() error {
		c, err := newRunner(name, seed, seconds)
		if err != nil {
			return err
		}
		return st.run(c)
	}
	plain, err := timedPass(w, nil, again)
	res.Attempted, res.Failed = plain.ops, plain.failed
	if err != nil {
		return fail(err)
	}
	fmt.Printf("workload %s seed %d: %d ops in %.3fs, %d failed, digest %016x, warm-up digest %016x, setups %.4f\n",
		name, seed, plain.ops, float64(plain.wallNs)/1e9, plain.failed, uint64(plain.digest), uint64(st.digest), st.secs)

	if !traced {
		p50s := segmentPercentiles(plain.lat, plain.segEnd, 0.50)
		groups := latencyGroups(plain.lat, plain.segEnd)
		p99s, ok99 := groupPercentiles(groups, 0.99)
		if !ok99 {
			// Too short a run to report a p99: no result, not a wrong one.
			return nil, fmt.Errorf("%d ops leave fewer than %d samples beyond p99; raise --seconds", len(plain.lat), minBeyond)
		}
		fmt.Printf("segment p50 ns %.0f\ngroup p99 ns %.0f\n", p50s, p99s)
		// The checkpoint readings include the harness's latency buffer
		// and inputs; measure them once by dropping them, and report the
		// median program heap over the checkpoints.
		withHarness := liveHeapMB()
		plain.lat, groups = nil, nil
		w.release()
		harness := withHarness - liveHeapMB()
		runtime.KeepAlive(w) // the program state stays live through the readings
		heap := make([]float64, len(plain.heapMB))
		for i, h := range plain.heapMB {
			heap[i] = h - harness
		}
		ref := (ref0 + hostRefNs()) / 2
		fmt.Printf("host.ref_ns %.1f\nsegment ops/s %.0f\nheap MB %.4f\n", ref, plain.segRate, heap)
		put(res, endToEnd, map[string]float64{
			"setup_s":              median(st.secs),
			"throughput_ops_per_s": quantile(plain.segRate, quietShare),
			"op_p50_us":            quantile(p50s, 1-quietShare) / 1e3,
			"op_p99_us":            quantile(p99s, quietShare) / 1e3,
			"heap_live_mb":         median(heap),
			"accept_ratio":         plain.accept,
		})
		return res, nil
	}

	// The traced pass replays the same op sequence from fresh state.
	runtime.GC()
	if _, err := w.setup(nil); err != nil {
		return fail(fmt.Errorf("traced setup: %w", err))
	}
	if err := w.check(); err != nil {
		return fail(fmt.Errorf("after traced setup: %w", err))
	}
	tr := newTracer(1 << 16)
	tp, err := timedPass(w, tr, nil)
	if err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	if tp.digest != plain.digest || tp.failed != plain.failed {
		return fail(fmt.Errorf("traced digest %016x differs from untraced %016x", uint64(tp.digest), uint64(plain.digest)))
	}
	if tr.dropped > 0 {
		return fail(fmt.Errorf("span buffer overflowed by %d spans", tr.dropped))
	}
	sums := tr.stats()
	for i, st := range sums {
		if st.count > 0 {
			fmt.Printf("span %-18s count %8d mean %10.3f us self %10.3f us\n",
				spanNames[i], st.count, st.meanUs(), st.selfMeanUs())
		}
	}
	vals := w.layers(tp.ops, &sums)
	for _, m := range perLayer {
		if v, ok := st.layers[m.name]; ok {
			vals[m.name] = median(v)
		}
	}
	kops := float64(plain.ops) / 1e3
	vals["runtime.allocs_per_op"] = float64(plain.rt.mallocs) / float64(plain.ops)
	vals["runtime.alloc_bytes_per_op"] = float64(plain.rt.bytes) / float64(plain.ops)
	vals["runtime.gc_cycles_per_kop"] = float64(plain.rt.gcs) / kops
	vals["runtime.gc_pause_us_per_kop"] = float64(plain.rt.pauseNs) / 1e3 / kops
	vals["trace.overhead_pct"] = (float64(tp.wallNs)/float64(plain.wallNs) - 1) * 100
	vals["host.ref_ns"] = (ref0 + hostRefNs()) / 2
	put(res, perLayer, vals)
	return res, nil
}

// put fills the result with every listed metric; a layer the workload
// does not exercise reads zero.
func put(res *result, defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
}
