package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/region"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// reissue is a recovery policy that re-runs an aborted job from scratch
// once, as a backup; a backup that is aborted again is dropped.
type reissue struct{}

func (reissue) OnAbort(j sim.Job, _ timeu.Ticks) (sim.Job, bool) {
	if j.Backup {
		return j, false
	}
	j.Remaining, j.Backup = j.Total, true
	return j, true
}

// dumpResult writes a canonical text form of r: per-task stats sorted
// by name, per-channel stats (lateness histograms included) sorted by
// mode and channel, the fault and platform ledgers, and the trace's
// events and segments in their recorded order.
func dumpResult(w io.Writer, r *sim.Result) {
	fmt.Fprintf(w, "horizon %d\n", int64(r.Horizon))
	names := make([]string, 0, len(r.Tasks))
	for n := range r.Tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ts := r.Tasks[n]
		fmt.Fprintf(w, "task %q rel %d done %d miss %d abort %d rec %d corr %d canc %d tlate %d maxr %d sumr %d\n",
			n, ts.Released, ts.Completed, ts.Missed, ts.Aborted, ts.Recovered, ts.Corrupted,
			ts.Cancelled, ts.TransitionLate, int64(ts.MaxResponse), int64(ts.SumResponse))
	}
	ids := make([]sim.ChannelID, 0, len(r.Channels))
	for id := range r.Channels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Mode != ids[j].Mode {
			return ids[i].Mode < ids[j].Mode
		}
		return ids[i].Ch < ids[j].Ch
	})
	for _, id := range ids {
		cs := r.Channels[id]
		fmt.Fprintf(w, "channel %s svc %d busy %d silenced %d corruptions %d ", id,
			int64(cs.Service), int64(cs.Busy), cs.Silenced, cs.Corruptions)
		dumpHistogram(w, &cs.TransitionLateness)
	}
	fmt.Fprintf(w, "faults total %d masked %d silenced %d corruptions %d harmless %d\n",
		r.TotalFaults, r.Masked, r.Silenced, r.Corruptions, r.HarmlessFaults)
	for _, m := range task.Modes() {
		fmt.Fprintf(w, "service %s %d\n", m, int64(r.ModeService[m]))
	}
	fmt.Fprintf(w, "overhead %d slack %d ", int64(r.OverheadTime), int64(r.SlackTime))
	dumpHistogram(w, &r.TransitionLateness)
	if r.Trace == nil {
		fmt.Fprintln(w, "no trace")
		return
	}
	fmt.Fprintf(w, "trace %d events %d segments, dropped %d/%d\n",
		len(r.Trace.Events), len(r.Trace.Segments), r.Trace.DroppedEvents, r.Trace.DroppedSegments)
	for _, e := range r.Trace.Events {
		fmt.Fprintf(w, "ev %d %d %q %d %d %d %q\n",
			int64(e.At), int(e.Kind), e.Task, int(e.Mode), e.Channel, e.Core, e.Detail)
	}
	for _, s := range r.Trace.Segments {
		fmt.Fprintf(w, "seg %d %d %q %d %d\n", int64(s.From), int64(s.To), s.Task, int(s.Mode), s.Channel)
	}
}

func dumpHistogram(w io.Writer, h *sim.LatenessHistogram) {
	fmt.Fprintf(w, "late %d sum %d max %d buckets %v\n", h.Count, int64(h.Sum), int64(h.Max), h.Buckets)
}

func resultDigest(r *sim.Result) string {
	h := sha256.New()
	dumpResult(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunPinnedOutput pins Simulator.Run's exact output across the
// inputs a static run can take: RM, DM and EDF designs from New and a
// multi-quantum layout from NewWindows; no faults and Poisson faults
// that abort FS jobs and corrupt NF ones; no recovery and a re-issuing
// one; the default horizon; and a trace cap. Each case runs
// sequentially and in parallel, and both must hash to the digest
// recorded when the test was written. A changed digest means a change
// in what the executor computes, not only in how it is organised.
func TestRunPinnedOutput(t *testing.T) {
	problem := func(alg analysis.Alg) core.Problem {
		return core.Problem{
			Tasks: task.PaperTaskSet(),
			Alg:   alg,
			O:     core.UniformOverheads(task.PaperOverheadTotal),
		}
	}
	designed := func(alg analysis.Alg, goal design.Goal) func(t *testing.T) *sim.Simulator {
		return func(t *testing.T) *sim.Simulator {
			pr := problem(alg)
			sol, err := design.Solve(pr, goal, region.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(sol.Config, pr.Tasks, alg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	laidOut := func(t *testing.T) *sim.Simulator {
		pr := problem(analysis.EDF)
		l, err := layout.Solve(pr, 6.0, layout.Counts{FT: 1, FS: 4, NF: 2})
		if err != nil {
			t.Fatal(err)
		}
		usable, overhead := l.Windows()
		s, err := sim.NewWindows(l.P, usable, overhead, pr.Tasks, pr.Alg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	poisson := faults.Poisson{Rate: 0.2, Duration: timeu.FromUnits(0.3), Seed: 5}
	cases := []struct {
		name  string
		build func(t *testing.T) *sim.Simulator
		opts  sim.Options
		// faulty demands FS aborts and NF corruptions; recovered demands
		// re-issued jobs — so the digest covers those paths.
		faulty, recovered bool
		want              string
	}{
		{name: "edf/min-overhead/fault-free", build: designed(analysis.EDF, design.MinOverheadBandwidth),
			opts: sim.Options{Horizon: timeu.FromUnits(240), CollectTrace: true},
			want: "b2957816b11b72fbbba1c48a3252e8b5a295887c7c3cfce94c0c17570809b5bd"},
		{name: "rm/max-flexibility/poisson", build: designed(analysis.RM, design.MaxFlexibility),
			opts:   sim.Options{Horizon: timeu.FromUnits(240), Injector: poisson, CollectTrace: true},
			faulty: true, want: "a90a2e3afedaef018dbb1e2d73a02b2683631615d0843974af4673b0d06c8c2c"},
		{name: "dm/min-overhead/poisson/reissue", build: designed(analysis.DM, design.MinOverheadBandwidth),
			opts:   sim.Options{Horizon: timeu.FromUnits(240), Injector: poisson, Recovery: reissue{}, CollectTrace: true},
			faulty: true, recovered: true, want: "0cf414437b3f866ad81881a1c44f1f0e50320f09d3b6def6b7f48716b8b6de99"},
		{name: "edf/layout/poisson/reissue", build: laidOut,
			opts:   sim.Options{Horizon: timeu.FromUnits(240), Injector: poisson, Recovery: reissue{}, CollectTrace: true},
			faulty: true, recovered: true, want: "327df8ae7a933c98c810cc7dc26cdab7258f7588f87ab0f639604b044cc63e8a"},
		{name: "edf/layout/default-horizon", build: laidOut,
			opts: sim.Options{CollectTrace: true},
			want: "3812cd2926e1cf320c4461063450806a0739339dddb7538d1b77338d581dc696"},
		{name: "edf/max-flexibility/default-horizon/no-trace", build: designed(analysis.EDF, design.MaxFlexibility),
			opts: sim.Options{Injector: poisson},
			want: "b953ee469dffc741f2966fb3e74ae60ee249fd0e9bf7bd89f83267e4d1f353c8"},
		{name: "rm/min-overhead/poisson/trace-cap", build: designed(analysis.RM, design.MinOverheadBandwidth),
			opts:   sim.Options{Horizon: timeu.FromUnits(240), Injector: poisson, CollectTrace: true, MaxTraceEvents: 300},
			faulty: true, want: "0cb885fd8b9e6a96fbdf5775c5666e0b7946a3a06bdf811c693a5eb0a23aab9a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			for _, parallel := range []bool{false, true} {
				opts := c.opts
				opts.Parallel = parallel
				res, err := s.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if c.faulty && (res.Silenced == 0 || res.Corruptions == 0) {
					t.Fatalf("parallel=%v: faults must abort FS jobs and corrupt NF ones, got %d aborts, %d corruptions",
						parallel, res.Silenced, res.Corruptions)
				}
				if opts.MaxTraceEvents > 0 && !res.Trace.Truncated() {
					t.Fatalf("parallel=%v: the trace cap of %d dropped nothing", parallel, opts.MaxTraceEvents)
				}
				if c.recovered {
					rec := 0
					for _, ts := range res.Tasks {
						rec += ts.Recovered
					}
					if rec == 0 {
						t.Fatalf("parallel=%v: recovery re-issued no job", parallel)
					}
				}
				if got := resultDigest(res); got != c.want {
					t.Errorf("parallel=%v: digest %s, want %s\n%s", parallel, got, c.want, res.Summary())
				}
			}
		})
	}
}
