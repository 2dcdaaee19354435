package main

import (
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/online"
)

// ---- latency percentiles ----

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 over fewer than 1000 samples is noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether at least minBeyond samples lie strictly beyond its rank.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// groupOps is the least number of ops a latency group holds, so its
// p99 has at least minBeyond samples beyond it.
const groupOps = 1000

// latencyGroups cuts the per-op latencies at segment ends into groups
// of at least groupOps consecutive ops (a short tail joins the last
// group) and sorts each group in place.
func latencyGroups(lat []int64, ends []int) [][]int64 {
	var starts []int
	lo := 0
	for _, hi := range ends {
		if hi-lo >= groupOps {
			starts = append(starts, lo)
			lo = hi
		}
	}
	if len(starts) == 0 {
		starts = append(starts, 0)
	}
	groups := make([][]int64, len(starts))
	for i, st := range starts {
		end := len(lat)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		groups[i] = lat[st:end]
		slices.Sort(groups[i])
	}
	return groups
}

// groupPercentiles returns each group's q-quantile. It refuses (false)
// when any group leaves fewer than minBeyond samples beyond its quantile.
func groupPercentiles(groups [][]int64, q float64) ([]float64, bool) {
	vals := make([]float64, 0, len(groups))
	for _, g := range groups {
		v, ok := percentile(g, q)
		if !ok {
			return nil, false
		}
		vals = append(vals, float64(v))
	}
	return vals, len(vals) > 0
}

// quietShare places every timing on the quiet side of the run. The
// host's noise is one-sided and comes in phases of seconds to minutes:
// fast bursts lift segment rates and lower segment p50s above a dense,
// steady floor, and interference spikes lift group p99s. A median follows
// how much of the run the noise happened to cover; a quintile on the
// side the noise does not reach stays put. Throughput is the
// quietShare-quantile of the segment rates, p50 the (1-quietShare)-
// quantile of the segment p50s, and p99 the quietShare-quantile of the
// group p99s (NOTES.md has the spreads of each reading).
const quietShare = 0.20

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(idx, len(s)-1))]
}

// segmentPercentiles sorts the latencies of each segment (ending at
// ends) in place and returns each segment's q-quantile.
func segmentPercentiles(lat []int64, ends []int, q float64) []float64 {
	out := make([]float64, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		seg := lat[lo:hi]
		slices.Sort(seg)
		v, _ := percentile(seg, q)
		out = append(out, float64(v))
		lo = hi
	}
	return out
}

// ---- outcome classification ----

// outcome is the benchmark's verdict on one program call.
type outcome uint8

const (
	// outOK: the call succeeded.
	outOK outcome = iota
	// outRejected: a typed rejection — an admission that did not fit,
	// which the program is meant to return. Not a failure.
	outRejected
	// outFailed: any other error, ErrBusy included (a single client
	// can never collide with an in-flight batch).
	outFailed
)

// classify sorts a manager error into the three outcomes.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, online.ErrBusy):
		return outFailed
	case errors.Is(err, online.ErrRejected):
		return outRejected
	}
	return outFailed
}

// ---- determinism digest ----

// digest is a 64-bit FNV-1a hash over the run's per-op verdicts and
// final state. Two runs of one seed, traced or not, must agree on it.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(byte(v))
		*d *= 1099511628211
		v >>= 8
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		*d ^= digest(s[i])
		*d *= 1099511628211
	}
	d.u64(uint64(len(s)))
}

// ---- spans ----

// spanName indexes spanNames.
type spanName uint8

const (
	spSetupPartition spanName = iota
	spSetupCompile
	spSetupDesign
	spSetupManager
	spSetupWarmup
	spAdmit
	spRemove
	spPatch
	spPartition
	spSearch
	spCompile
	spConfigFor
	spVerify
	spWhatIf
	spRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup.partition", "setup.compile", "setup.design", "setup.manager", "setup.warmup",
	"online.admit", "online.remove", "analysis.patch",
	"partition.assign", "region.search", "core.compile", "core.configfor", "core.verify", "core.whatif",
	"sim.run",
}

// span is one timed call the benchmark made into a layer. Spans of one
// op share op; parent is the index of the causing span, or -1.
type span struct {
	start, end int64
	op         uint32
	parent     int32
	name       spanName
}

// tracer keeps spans in memory allocated before the traced pass. When
// the buffer nears full at an op boundary its spans are folded into
// per-name statistics and the buffer is reused, so a traced pass of any
// length runs in fixed memory. A nil *tracer records nothing, so the
// untraced pass calls the same code with no tracing cost beyond a nil
// check.
type tracer struct {
	base    time.Time
	spans   []span
	agg     [numSpanNames]spanStats
	dropped int
	// excludedNs is time the traced pass spends on the benchmark's own
	// bookkeeping (folding spans, shadow re-executions); it is
	// taken out of the traced wall time before the overhead is computed.
	excludedNs int64
}

// maxSpansPerOp bounds the spans one op records.
const maxSpansPerOp = 64

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// op marks an op boundary: spans never straddle one, so the buffer may
// be folded here.
func (tr *tracer) op() {
	if tr == nil || cap(tr.spans)-len(tr.spans) >= maxSpansPerOp {
		return
	}
	t0 := nanotime()
	tr.fold()
	tr.excludedNs += nanotime() - t0
}

func (tr *tracer) fold() {
	s := summarize(tr.spans)
	for i := range s {
		tr.agg[i] = tr.agg[i].plus(s[i])
	}
	tr.spans = tr.spans[:0]
}

// stats folds what is left and returns the per-name statistics.
func (tr *tracer) stats() [numSpanNames]spanStats {
	tr.fold()
	return tr.agg
}

// begin opens a span and returns its index (-1 when not tracing or the
// buffer is full).
func (tr *tracer) begin(name spanName, op uint32, parent int32) int32 {
	if tr == nil {
		return -1
	}
	if len(tr.spans) == cap(tr.spans) {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{start: tr.now(), op: op, parent: parent, name: name})
	return int32(len(tr.spans) - 1)
}

// end closes span i.
func (tr *tracer) end(i int32) {
	if tr == nil || i < 0 {
		return
	}
	tr.spans[i].end = tr.now()
}

// exclude books time since t0 as benchmark bookkeeping.
func (tr *tracer) exclude(t0 int64) {
	if tr != nil {
		tr.excludedNs += nanotime() - t0
	}
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count     int
	totalNs   int64
	selfNs    int64 // total minus the time of the spans they caused
	childNs   int64
	childSeen int // spans of this name with at least one child
}

func (s spanStats) plus(o spanStats) spanStats {
	return spanStats{s.count + o.count, s.totalNs + o.totalNs, s.selfNs + o.selfNs, s.childNs + o.childNs, s.childSeen + o.childSeen}
}

func (s spanStats) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.count) / 1e3
}

// selfMeanUs is the mean self time of the spans of this name that had
// children (the calls whose inner step was matched).
func (s spanStats) selfMeanUs() float64 {
	if s.childSeen == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.childSeen) / 1e3
}

// summarize folds spans into per-name statistics. A span's self time
// is its duration minus the durations of its children: the children
// are either calls nested inside it, one after another, or the
// shadow re-execution of the layer step it performed internally.
func summarize(spans []span) [numSpanNames]spanStats {
	child := make([]int64, len(spans))
	has := make([]bool, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			has[s.parent] = true
		}
	}
	var out [numSpanNames]spanStats
	for i, s := range spans {
		st := &out[s.name]
		d := s.end - s.start
		st.count++
		st.totalNs += d
		if has[i] {
			st.childSeen++
			st.childNs += child[i]
			st.selfNs += selfTime(d, child[i])
		}
	}
	return out
}

// selfTime is a span's duration minus its children's, floored at zero
// (a mirrored child can outlast the call it stands in for).
func selfTime(dur, children int64) int64 { return max(0, dur-children) }

// ---- Go runtime accounting ----

// rtStats is a cumulative runtime reading; deltas over the timed
// segments give the per-op allocation and GC figures.
type rtStats struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readRT() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pauseNs - b.pauseNs}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs, a.pauseNs + b.pauseNs}
}

// liveHeapMB forces two collections and returns the heap the second
// found live. The first empties the sync.Pool caches into their victim
// caches, which survive it; the second drops those, so pooled scratch
// (the manager's included) is never read as live state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// ---- host reference ----

var refSink uint64

// hostRefNs times a fixed pure-Go integer loop (median of 15 blocks of
// 1<<16 xorshift steps). It moves with the host's speed, not with the
// program, so a shift in it next to a shift in the workload metrics
// points at the machine.
func hostRefNs() float64 {
	var d [15]int64
	x := uint64(88172645463325252)
	for r := range d {
		t0 := time.Now()
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d[r] = int64(time.Since(t0))
	}
	refSink += x
	s := d[:]
	slices.Sort(s)
	return float64(s[len(s)/2])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, zero for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
