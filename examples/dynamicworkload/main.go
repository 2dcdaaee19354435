// Dynamicworkload shows what the max-flexibility design goal buys: the
// Table 2(c) solution leaves 12.1 % of the platform's bandwidth
// redistributable, and an on-line admission controller can spend it on
// tasks that arrive after deployment — exactly the scenario the paper
// uses to motivate its second design goal ("there may be design
// scenarios where some tasks arrive dynamically and it would be very
// convenient to shrink or enlarge the time quanta").
//
// The example deploys the paper's task set with the max-flexibility
// configuration and drives it through the scenario runtime: a timeline
// of workload events — a burst admitted as one batch, an oversized
// arrival rejected with the slot arithmetic spelled out, a removal
// batch reclaiming slack, the retry landing — is replayed against the
// live manager, each change taking effect at the next slot-cycle
// boundary while in-flight jobs carry across the reshapes. The replay
// is the proof: every admitted task met every deadline released during
// its residency.
//
// Run with: go run ./examples/dynamicworkload
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	pr := repro.PaperProblem(repro.EDF)
	sol, err := repro.Design(pr, repro.MaxFlexibility)
	if err != nil {
		log.Fatal(err)
	}
	// Compile the problem once and build the manager from that
	// compilation: the same CompiledProblem can also serve sweeps,
	// what-if queries or sibling managers, and the manager copies what
	// it will mutate, so churn leaves it pristine.
	cp, err := repro.Compile(pr)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := repro.NewOnlineManagerFromCompiled(cp, sol.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed max-flexibility design: P = %.3f, slack = %.4f (%.1f%% of bandwidth)\n\n",
		sol.Config.P, mgr.Slack(), 100*mgr.Slack()/sol.Config.P)

	// The workload timeline. Each event fires at a simulated instant;
	// the manager applies it and the change takes effect at the next
	// slot-cycle boundary (one reshape per event, mode-switch-safe).
	burst := repro.TaskSet{
		{Name: "telemetry", C: 0.4, T: 10, Mode: repro.NF, Channel: 3},
		{Name: "watchdog", C: 0.3, T: 8, Mode: repro.FS, Channel: 1},
		{Name: "self-test", C: 0.5, T: 15, Mode: repro.FT, Channel: 0},
		{Name: "logger", C: 0.6, T: 12, Mode: repro.NF, Channel: 2},
	}
	audit := repro.Task{Name: "audit", C: 1.0, T: 10, Mode: repro.FT, Channel: 0}
	timeline := repro.Scenario{Events: []repro.WorkloadEvent{
		// t=40: a burst of arrivals as ONE all-or-nothing batch — one
		// candidate set, one reshape, instead of one per task.
		{At: repro.FromUnits(40), Kind: repro.EventAdmit, Tasks: burst},
		// t=120: an oversized FT arrival. It does not fit; the outcome
		// records the rejection with the slot arithmetic spelled out.
		{At: repro.FromUnits(120), Kind: repro.EventAdmit, Tasks: repro.TaskSet{audit}},
		// t=200: release the two heaviest fail-silent tasks in one batch
		// to make room...
		{At: repro.FromUnits(200), Kind: repro.EventRemove, Names: []string{"tau8", "tau9"}},
		// t=240: ...and retry the rejected arrival.
		{At: repro.FromUnits(240), Kind: repro.EventAdmit, Tasks: repro.TaskSet{audit}},
	}}

	res, err := repro.ReplayScenario(mgr, timeline, repro.ScenarioOptions{
		Options: repro.SimOptions{
			Horizon:      repro.FromUnits(480),
			Parallel:     true,
			CollectTrace: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Narrate the outcomes the manager produced.
	for _, out := range res.Outcomes {
		switch {
		case out.Err == nil && out.Event.Kind == repro.EventAdmit:
			fmt.Printf("t=%-4s admitted %d task(s) in one reconfiguration, effective t=%s:\n",
				out.Event.At, len(out.Joined), out.EffectiveAt)
			for _, tk := range out.Event.Tasks {
				fmt.Printf("        %-10s (%s, C=%.1f, T=%.0f)\n", tk.Name, tk.Mode, tk.C, tk.T)
			}
		case out.Err == nil:
			fmt.Printf("t=%-4s %s %v effective t=%s\n",
				out.Event.At, out.Event.Kind, out.Event.Names, out.EffectiveAt)
		case errors.Is(out.Err, repro.ErrAdmissionRejected):
			fmt.Printf("t=%-4s rejected: %v\n", out.Event.At, out.Err)
		default:
			log.Fatal(out.Err)
		}
	}
	fmt.Printf("\nslack after the churn: %.4f\n", mgr.Slack())

	// The churn patched the channel profiles in place; audit each against
	// a fresh compile, its row storage included.
	if err := mgr.CheckProfiles(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channel profiles match a fresh compile after the churn\n\n")

	// The replay simulated every epoch: here is the executable proof
	// that the reconfigurations preserved the guarantees.
	misses := 0
	for _, r := range res.Residencies {
		misses += r.Stats.Missed
	}
	fmt.Printf("replay over 480 time units: %d epochs, %d residencies, %d releases, %d misses\n",
		res.Epochs, len(res.Residencies), res.TotalReleased(), misses)
	if misses != 0 {
		log.Fatal("reconfiguration broke a guarantee — this must never happen")
	}

	// Zoom the Gantt chart onto the burst's reshape boundary: the '|'
	// marker is the reconfiguration instant, read against the jobs
	// running through it.
	adm := res.Outcomes[0]
	from := adm.EffectiveAt - repro.FromUnits(2)
	fmt.Println()
	fmt.Print(res.Trace.Gantt(from, from+repro.FromUnits(6), 96))
	fmt.Println("\nevery reconfiguration preserved every deadline, as Eq. (12)-(14) promise")
}
