package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/online"
	"repro/internal/partition"
	"repro/internal/region"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// Aliases re-exporting the library's primary types, so module-local
// consumers (cmd/, examples/) need a single import.
type (
	// Task is one sporadic real-time task (C, T, D, mode, channel).
	Task = task.Task
	// TaskSet is an ordered collection of tasks.
	TaskSet = task.Set
	// Mode is the operating mode a task requires (FT, FS or NF).
	Mode = task.Mode
	// Alg selects the per-channel scheduler (RM, DM or EDF).
	Alg = analysis.Alg
	// Problem is a design problem: tasks + algorithm + overheads.
	Problem = core.Problem
	// Config is a concrete platform configuration (P, slots, overheads).
	Config = core.Config
	// PerMode carries one value per operating mode.
	PerMode = core.PerMode
	// Goal selects the design objective of Section 4.
	Goal = design.Goal
	// Solution is a fully worked design (Table 2 row set).
	Solution = design.Solution
	// SweepPoint is one sample of the Figure 4 curve.
	SweepPoint = region.Point
	// ExploreOptions tune the design-space searches.
	ExploreOptions = region.Options
	// SimOptions configure a simulation run.
	SimOptions = sim.Options
	// SimResult aggregates a simulation's outcome.
	SimResult = sim.Result
	// Fault is one transient soft error.
	Fault = faults.Fault
	// FaultScript replays a fixed fault list.
	FaultScript = faults.Script
	// PoissonFaults injects faults with exponential inter-arrivals.
	PoissonFaults = faults.Poisson
	// Ticks is simulator time (1e9 ticks per analysis time unit).
	Ticks = timeu.Ticks
	// WorkloadConfig describes a synthetic workload.
	WorkloadConfig = workload.Config
	// PartitionOptions configure automatic channel assignment.
	PartitionOptions = partition.Options
)

// Re-exported enum values.
const (
	// FT is the fault-tolerant mode (redundant lock-step, faults masked).
	FT = task.FT
	// FS is the fail-silent mode (lock-step pairs, faults detected).
	FS = task.FS
	// NF is the non-fault-tolerant mode (full parallelism).
	NF = task.NF

	// RM is fixed-priority scheduling with Rate Monotonic priorities.
	RM = analysis.RM
	// DM is fixed-priority scheduling with Deadline Monotonic priorities.
	DM = analysis.DM
	// EDF is Earliest Deadline First.
	EDF = analysis.EDF

	// MinOverheadBandwidth maximises the period (Table 2(b)).
	MinOverheadBandwidth = design.MinOverheadBandwidth
	// MaxFlexibility maximises redistributable slack (Table 2(c)).
	MaxFlexibility = design.MaxFlexibility
)

// PaperTaskSet returns the 13-task workload of the paper's Table 1 with
// its Section 4 channel partition.
func PaperTaskSet() TaskSet { return task.PaperTaskSet() }

// PaperOverheadTotal is the O_tot = 0.05 of the paper's worked example.
const PaperOverheadTotal = task.PaperOverheadTotal

// NewProblem assembles and validates a design problem with the total
// mode-switch overhead split uniformly across the three switches.
func NewProblem(tasks TaskSet, alg Alg, totalOverhead float64) (Problem, error) {
	pr := Problem{Tasks: tasks.Normalized(), Alg: alg, O: core.UniformOverheads(totalOverhead)}
	if err := pr.Validate(); err != nil {
		return Problem{}, err
	}
	return pr, nil
}

// PaperProblem is the paper's Section 4 example: Table 1 tasks, the
// given algorithm, O_tot = 0.05.
func PaperProblem(alg Alg) Problem {
	return Problem{Tasks: task.PaperTaskSet(), Alg: alg, O: core.UniformOverheads(PaperOverheadTotal)}
}

// Design solves the problem for one goal with default search options.
func Design(pr Problem, goal Goal) (Solution, error) {
	return design.Solve(pr, goal, region.Options{})
}

// DesignBoth solves the two design goals of Section 4 side by side.
func DesignBoth(pr Problem) (maxPeriod, maxSlack Solution, err error) {
	return design.Both(pr, region.Options{})
}

// Explore samples the Figure 4 curve lhs(P) over (0, opts.PMax]. The
// problem is compiled once (see Compile) and every sample is served
// from the compiled demand profiles.
func Explore(pr Problem, opts ExploreOptions) ([]SweepPoint, error) {
	return region.Sweep(pr, opts)
}

// CompiledProblem caches a problem's per-channel demand profiles — the
// P-independent part of Eq. (15) — so repeated LHS evaluations become
// allocation-free loops. All Explore/Design entry points compile
// internally; use Compile directly when running several searches over
// the same problem.
type CompiledProblem = core.CompiledProblem

// Compile compiles the problem's demand profiles once.
func Compile(pr Problem) (*CompiledProblem, error) { return pr.Compile() }

// ExploreCompiled is Explore for an already-compiled problem.
func ExploreCompiled(cp *CompiledProblem, opts ExploreOptions) ([]SweepPoint, error) {
	return region.SweepCompiled(cp, opts)
}

// ExploreParallelCompiled is ExploreParallel for an already-compiled
// problem.
func ExploreParallelCompiled(cp *CompiledProblem, opts ExploreOptions, workers int) ([]SweepPoint, error) {
	return region.SweepParallelCompiled(cp, opts, workers)
}

// MaxFeasiblePeriod returns the largest period satisfying Eq. (15).
func MaxFeasiblePeriod(pr Problem, opts ExploreOptions) (float64, error) {
	return region.MaxFeasiblePeriod(pr, opts)
}

// MaxAdmissibleOverhead returns the largest total overhead with a
// feasible period, and the period attaining it.
func MaxAdmissibleOverhead(pr Problem, opts ExploreOptions) (period, overhead float64, err error) {
	return region.MaxAdmissibleOverhead(pr, opts)
}

// Simulate runs the configuration on the modelled 4-core platform.
func Simulate(cfg Config, tasks TaskSet, alg Alg, opts SimOptions) (*SimResult, error) {
	s, err := sim.New(cfg, tasks, alg)
	if err != nil {
		return nil, err
	}
	return s.Run(opts)
}

// AutoPartition assigns tasks to channels with worst-fit decreasing —
// the balance-oriented default — admitting by exact schedulability
// under alg. Pass custom options via AutoPartitionWith.
func AutoPartition(tasks TaskSet, alg Alg) (TaskSet, error) {
	return partition.Assign(tasks, partition.Options{
		Heuristic:  partition.WorstFit,
		Decreasing: true,
		Alg:        alg,
	})
}

// AutoPartitionWith assigns tasks to channels with explicit options.
func AutoPartitionWith(tasks TaskSet, opts PartitionOptions) (TaskSet, error) {
	return partition.Assign(tasks, opts)
}

// GenerateWorkload produces a synthetic task set (UUniFast utilisations,
// log-uniform periods).
func GenerateWorkload(cfg WorkloadConfig) (TaskSet, error) { return workload.Generate(cfg) }

// FromUnits converts analysis time units to simulator ticks.
func FromUnits(u float64) Ticks { return timeu.FromUnits(u) }

// FormatTaskTable renders the task set like the paper's Table 1.
func FormatTaskTable(s TaskSet) string { return report.TaskTable(s) }

// FormatSolutions renders solutions like the paper's Table 2.
func FormatSolutions(sols ...Solution) string { return report.SolutionTable(sols...) }

// WriteSweepCSV writes Figure 4 series as CSV.
func WriteSweepCSV(w io.Writer, series map[string][]SweepPoint) error {
	return report.WriteCSV(w, series)
}

// ReadTaskSet parses a task-set JSON file.
func ReadTaskSet(r io.Reader) (TaskSet, error) { return task.ReadJSON(r) }

// WriteTaskSet writes a task-set JSON file.
func WriteTaskSet(w io.Writer, s TaskSet) error { return s.WriteJSON(w) }

// Extensions beyond the paper's evaluation (its Section 5 future work).

// OnlineManager admits and releases tasks at run time within the
// period's slack, preserving all guarantees (see internal/online). It
// reconfigures in batches (AdmitBatch/RemoveBatch: all-or-nothing, one
// reshape per touched mode, one configuration swap), shards its state
// per channel so independent channels reconfigure concurrently, and
// serves Config/Slack/Tasks lock-free from an atomically published
// snapshot.
type OnlineManager = online.Manager

// NewOnlineManager starts run-time management from a verified design.
func NewOnlineManager(pr Problem, cfg Config) (*OnlineManager, error) {
	return online.NewManager(pr, cfg)
}

// NewOnlineManagerFromCompiled starts run-time management from an
// already-compiled problem, reusing its channel profiles instead of
// recompiling. The manager copies everything it will mutate, so churn
// never corrupts the source CompiledProblem and several managers can be
// built from one compilation.
func NewOnlineManagerFromCompiled(cp *CompiledProblem, cfg Config) (*OnlineManager, error) {
	return online.NewManagerFromCompiled(cp, cfg)
}

// ErrAdmissionRejected is the sentinel every failed reconfiguration
// wraps: admissions that do not fit, removals of unknown tasks,
// revocations that cannot be represented. errors.Is against it is the
// uniform failure check; errors.As against *AdmissionRejection
// recovers the structured detail.
var ErrAdmissionRejected = online.ErrRejected

// ErrAdmissionBusy marks the transient subclass of rejections: the
// operation collided with a reconfiguration still in flight and can
// simply be retried — AdmissionBackoff.Retry does so with exponential
// backoff.
var ErrAdmissionBusy = online.ErrBusy

// Robustness extensions: value-ordered partial admission, degraded-mode
// operation under capacity loss, typed rejection reports, and a chaos
// harness stressing all of it concurrently (see internal/online and
// internal/chaos).
type (
	// AdmissionPolicy ranks tasks for victim selection: partial
	// admission sheds the lowest-value batch members, Revoke evicts the
	// lowest-value live tasks, Restore readmits parked tasks
	// highest-value first. The zero policy values every task equally.
	AdmissionPolicy = online.Policy
	// AdmitReport is the typed outcome of AdmitBatchPartial: the
	// admitted members plus a verdict for every one that was not.
	AdmitReport = online.AdmitReport
	// TaskVerdict is the per-task outcome of a batch admission.
	TaskVerdict = online.TaskVerdict
	// VerdictCode classifies one task's fate (admitted, invalid,
	// name-taken, busy, shed, rejected).
	VerdictCode = online.VerdictCode
	// AdmissionRejection is the structured rejection error: offending
	// mode slots (requested vs maximum) and per-task verdicts.
	AdmissionRejection = online.Rejection
	// SlotOverflow describes one mode slot that no longer fits.
	SlotOverflow = online.SlotOverflow
	// AdmissionBackoff retries operations that fail transiently.
	AdmissionBackoff = online.Backoff
	// DegradeReport is the typed outcome of Revoke/Restore.
	DegradeReport = online.DegradeReport
	// OnlineEvent notifies an event sink of sheds, evictions,
	// readmissions and capacity transitions.
	OnlineEvent = online.Event
	// CapacityStep is one revoke/restore transition rendered from a
	// fault schedule for degraded-mode operation.
	CapacityStep = faults.Step
)

// Re-exported verdict codes.
const (
	VerdictAdmitted  = online.VerdictAdmitted
	VerdictInvalid   = online.VerdictInvalid
	VerdictNameTaken = online.VerdictNameTaken
	VerdictBusy      = online.VerdictBusy
	VerdictShed      = online.VerdictShed
	VerdictRejected  = online.VerdictRejected
)

// CapacitySteps renders a fault schedule as a degraded-mode capacity
// scenario: each fault revokes the struck core's share of the period —
// period/cores, cores ≤ 0 meaning the platform default — at its strike
// instant and restores it when the condition clears.
func CapacitySteps(fs []Fault, period float64, cores int) ([]CapacityStep, error) {
	return faults.CapacitySteps(fs, period, cores)
}

// ChaosOptions configure a chaos-harness run.
type ChaosOptions = chaos.Options

// ChaosResult summarises a chaos-harness run.
type ChaosResult = chaos.Result

// RunChaos storms the manager with concurrent admissions, partial
// admissions, removals and fault-driven capacity revocations, checking
// the full-state invariants — Verify, task conservation, bit-identity
// of the live configuration to a from-scratch solve — at every
// quiescent point. pr must be the problem the manager was built from.
func RunChaos(m *OnlineManager, pr Problem, opts ChaosOptions) (*ChaosResult, error) {
	return chaos.Run(m, pr, opts)
}

// Scenario-runtime aliases: a timeline of workload events replayed
// against a live online manager (sim.Replay), and the closed-loop
// chaos harness built on it.
type (
	// Scenario is a timeline of workload events to replay.
	Scenario = sim.Scenario
	// WorkloadEvent is one timed admission, removal, revocation or
	// restore in a scenario.
	WorkloadEvent = sim.WorkloadEvent
	// WorkloadEventKind discriminates workload events.
	WorkloadEventKind = sim.EventKind
	// ScenarioOptions configure a scenario replay.
	ScenarioOptions = sim.ScenarioOptions
	// ScenarioResult extends SimResult with epochs, event outcomes and
	// per-residency statistics.
	ScenarioResult = sim.ScenarioResult
	// EventOutcome records how the manager handled one workload event.
	EventOutcome = sim.EventOutcome
	// Residency is one task's tenure on a channel with its job stats.
	Residency = sim.Residency
	// ClosedLoopOptions configure a closed-loop chaos run.
	ClosedLoopOptions = chaos.LoopOptions
	// ClosedLoopResult tallies a closed-loop chaos run.
	ClosedLoopResult = chaos.LoopResult
)

// Workload event kinds.
const (
	// EventAdmit is an all-or-nothing batch admission.
	EventAdmit = sim.EventAdmit
	// EventAdmitPartial is a shed-what-does-not-fit batch admission.
	EventAdmitPartial = sim.EventAdmitPartial
	// EventRemove removes named tasks.
	EventRemove = sim.EventRemove
	// EventRevoke revokes platform capacity (degraded mode).
	EventRevoke = sim.EventRevoke
	// EventRestore returns revoked capacity.
	EventRestore = sim.EventRestore
)

// ReplayScenario replays a workload-event timeline against a live
// online manager and simulates the executions it induces, epoch by
// epoch: admissions and removals take effect at the next slot-cycle
// boundary, in-flight jobs carry across each reshape, and the result
// reports per-residency deadline statistics — the executable analogue
// of the admission guarantee.
func ReplayScenario(m *OnlineManager, sc Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return sim.Replay(m, sc, opts)
}

// RunClosedLoopChaos generates a seeded workload storm, replays it
// through the scenario runtime under fault injection, and asserts that
// every admitted task met every deadline released during its residency.
func RunClosedLoopChaos(m *OnlineManager, opts ClosedLoopOptions) (*ClosedLoopResult, error) {
	return chaos.RunClosedLoop(m, opts)
}

// Observability: a dependency-free, zero-allocation metrics layer over
// the admission and replay runtime (see internal/metrics). Writes are
// single atomic operations, so instrumented hot paths stay
// allocation-free; Snapshot reads are immutable copies, exact at
// quiescent points. Serve a registry over HTTP with metrics.Handler
// (cmd/ftsim -metricsaddr wires it up) or publish it via expvar.
type (
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is an immutable point-in-time copy of a registry.
	MetricsSnapshot = metrics.Snapshot
	// OnlineMetrics is the online manager's instrument set; install it
	// with OnlineManager.SetMetrics.
	OnlineMetrics = online.Metrics
	// SimMetrics is the scenario runtime's instrument set; pass it via
	// ScenarioOptions.Metrics.
	SimMetrics = sim.Metrics
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// NewOnlineMetrics registers the manager instrument set (counters for
// every reconfiguration outcome, patch/commit latency histograms,
// live-state gauges) under the "online." namespace of reg.
func NewOnlineMetrics(reg *MetricsRegistry) *OnlineMetrics { return online.NewMetrics(reg) }

// NewSimMetrics registers the scenario-runtime instrument set (events,
// epochs, reshapes, job outcomes, replay throughput) under the "sim."
// namespace of reg.
func NewSimMetrics(reg *MetricsRegistry) *SimMetrics { return sim.NewMetrics(reg) }

// ExploreParallel is Explore with the samples fanned out over a worker
// pool (0 workers = GOMAXPROCS).
func ExploreParallel(pr Problem, opts ExploreOptions, workers int) ([]SweepPoint, error) {
	return region.SweepParallel(pr, opts, workers)
}

// CriticalScaling returns the largest factor by which all computation
// times can grow while period p stays feasible (sensitivity analysis).
func CriticalScaling(pr Problem, p float64) (float64, error) {
	return region.CriticalScaling(pr, p)
}

// SubSlotCounts selects how many sub-slots each mode receives per
// period in a layout. Equal counts {k, k, k} give the uniform split:
// every mode's quantum delivered as k evenly spaced sub-slots.
type SubSlotCounts = layout.Counts

// PeriodLayout is an as-built multi-quantum period layout.
type PeriodLayout = layout.Layout

// SolveLayout sizes a multi-quantum layout at a fixed period (the
// paper's Section 5 extension). Equal counts give the uniform split, k
// sub-slots per mode, each mode paying its switch overhead k times.
// Non-uniform counts let modes with tight deadlines recur several times
// per period while others pay their switch overhead once — strictly
// more expressive than any single common period.
func SolveLayout(pr Problem, p float64, counts SubSlotCounts) (PeriodLayout, error) {
	return layout.Solve(pr, p, counts)
}

// SimulateLayout runs a non-uniform layout on the modelled platform.
func SimulateLayout(l PeriodLayout, tasks TaskSet, alg Alg, opts SimOptions) (*SimResult, error) {
	usable, overhead := l.Windows()
	s, err := sim.NewWindows(l.P, usable, overhead, tasks, alg)
	if err != nil {
		return nil, err
	}
	return s.Run(opts)
}
