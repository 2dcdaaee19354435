// Package repro is a reproduction of "A Flexible Scheme for Scheduling
// Fault-Tolerant Real-Time Tasks on Multiprocessors" (Cirinei, Bini,
// Lipari, Ferrari — IPPS 2007).
//
// The paper time-partitions a 4-core lock-step multicore into three
// periodically recurring operating modes — fault-tolerant (FT, all four
// cores in redundant lock-step), fail-silent (FS, two lock-step pairs)
// and non-fault-tolerant (NF, four independent cores) — and uses
// hierarchical scheduling theory to size the slot cycle so every
// sporadic task meets its deadline in its required mode.
//
// This package is the umbrella API. The pieces live in internal
// packages:
//
//   - internal/task, internal/timeu: task model and time arithmetic;
//   - internal/points, internal/analysis, internal/supply: scheduling
//     points, Theorems 1–2, minQ (Eqs. 6 and 11), the linear supply
//     bound of Eq. (3) (analysis.Supply), supply functions (Lemma 1
//     exact form, multi-quantum patterns; the periodic-resource
//     comparison lives in internal/supply's tests).
//     The EDF demand bound W(t) of Eq. (9) is exact: it counts each
//     task's jobs the way the deadline generator emits their deadlines
//     and charges each job its WCET rounded up to whole simulator ticks
//     — the work the sim engine executes — summed as integers;
//   - internal/envelope: the dominance pruning the analysis layer is
//     built on. Demand curves cross at most once, so a pair is retained
//     iff it is undominated at one of the two extremes (P→0⁺ rank w/t,
//     P→∞ rank w−t); envelope.Prune sorts the points under packed
//     order-preserving float keys and drops, in one walk, every point
//     another dominates at both. Pruning never decides MinQ (the 1e-9
//     relative margin keeps every near-tie), so every layer above stays
//     bit-identical to the naive MinQ, and Profile.Check compares a
//     profile's stream, demand row and pruned pairs with a fresh
//     Compile wherever the chaos harness reaches a quiescent point;
//   - internal/core: the paper's integration conditions (Eqs. 12–15);
//     Problem.Compile caches per-channel demand profiles
//     (analysis.Profile) — the P-independent half of Eq. (15) — so
//     repeated LHS evaluations run allocation-free; every search below
//     uses this compiled path, with the naive methods kept as the
//     reference oracle. Profiles update incrementally through one
//     patch algorithm, analysis.Profile.AddTasks/DropTasks: it splices
//     a batch's new deadline points into the profile's retained stream
//     (or walks them out), adds or subtracts the batch's owner counts
//     along the stream and its jobs in the channel's one integer demand
//     row, and stays identical to a fresh compile, so "what if these
//     tasks joined channel i" costs the newcomers' own deadlines and one
//     pass over the row rather than a channel recompilation. The
//     in-place patch leaves the pruned pairs unsettled: until the
//     profile is frozen or audited, MinQ scans the exact demand row with
//     the naive oracle's arithmetic, and the row is then pruned once
//     with envelope.Prune.
//     The what-ifs WithTasks/WithoutTasks (on both analysis.Profile and
//     core.CompiledProblem) run that patch on a clone of the receiver
//     and settle and freeze the result; a hyperperiod change falls back
//     to a full recompile (counted by Profile.Fallbacks and reported as
//     a trace event);
//   - internal/region, internal/design: Figure 4 exploration and the
//     two design goals of Table 2. The period searches find their
//     answer on the Figure 4 grid without evaluating all of it. The
//     minimum quanta sum S(P) is nondecreasing in P, and so is the
//     quanta's bandwidth S(P)/P from any p_lo with S(p_lo) < p_lo on.
//     So S at an interval's left end p_lo bounds lhs on the whole
//     interval: by P − S(p_lo)·P/p_lo when S(p_lo) < p_lo, else by
//     P − S(p_lo). Only the samples no such bound rules out are
//     evaluated. Results match a scan of every sample bit for bit;
//   - internal/layout: the one multi-quantum path, the paper's
//     Section 5 extension to several quanta per period. Counts give
//     each mode's sub-slots per period, and equal counts {k, k, k} are
//     the uniform split. Solve starts each mode from its
//     k·MinQExact(P/k) on the exact supply, verifies the as-built
//     layout on supply.Pattern and inflates a failing mode's quantum;
//   - internal/partition, internal/workload: automatic channel
//     assignment and synthetic workload generation. Every heuristic
//     probes a mode's channels in its order of preference and stops at
//     the first that fits — worst-fit by ascending and best-fit by
//     descending channel utilisation, ties to the lower index — which
//     is the channel a scan of every channel would pick (a test keeps
//     that scan as the reference). Channels are written back by
//     position, so unnamed tasks place correctly. The EDF admission
//     test is analysis.FeasibleEDF at α = 1, Δ = 0, the Theorem 2 test
//     core's Verify runs too; it builds Compile's demand row in pooled
//     scratch and allocates nothing on a warm pool;
//   - internal/online: the run-time admission controller of the paper's
//     second design goal, built on the incremental profiles so each
//     admit or release costs the change, not the channel. The manager
//     is batched (AdmitBatch/RemoveBatch: all-or-nothing groups, one
//     reshape and one configuration swap per batch), sharded
//     (per-channel locks, so disjoint channels reconfigure
//     concurrently) and read-optimised (Config/Slack/Tasks are served
//     lock-free from atomically swapped snapshots). Every
//     reconfiguration — batch, partial admission, Revoke, Restore —
//     publishes one way (publishLocked, a delta of the live and parked
//     sets): the next live set is bulk-copied from the current one
//     around the leaving tasks, which their publication sequence
//     numbers locate by binary search, so a commit does no per-name
//     work over the live set. Every profile patch an operation makes
//     under its channel locks goes into one undo log, replayed in
//     reverse when the operation rejects.
//     Its memory under churn is bounded by the profiles themselves:
//     a departure that leaves a demand row's capacity at
//     analysis.MaxMemRatio times its length trims it, so there is no
//     policy to tune. It is also overload-resilient: AdmitBatchPartial
//     sheds the lowest-value members of an overflowing batch under a
//     Policy (greedy-maximal, one profile patch per shed),
//     Revoke/Restore model capacity loss and recovery (evict
//     lowest-value tasks, park them, readmit by value) — partial
//     admission and Revoke share one shed loop, and the re-add pass and
//     Restore one readmit loop — and every failure is a typed *Rejection
//     (per-task verdicts, offending slot overflows, ErrRejected/ErrBusy
//     sentinels with a Backoff retry helper);
//   - internal/chaos: a seeded concurrency harness storming the manager
//     — admissions, partial admissions, removals, drains, fault-driven
//     revocations — and checking conservation, Verify, bit-identity to
//     a from-scratch solve and the full profile audit
//     (Manager.CheckProfiles, the row-storage bound included) at every
//     quiescent point, while tallying patch fallbacks (ftsim -chaos,
//     under EDF, RM and DM in CI). Most storm guests take their
//     channel's resident periods, many with off-grid deadlines below
//     them, so patches stay in place and drained rows are trimmed; a
//     few stretch the hyperperiod to keep the fallback path covered;
//     RunClosedLoop then closes the analysis → execution loop: it
//     replays a seeded workload storm through the scenario runtime
//     under fault injection and asserts the headline invariant
//     (ftsim -scenario);
//   - internal/platform, internal/faults, internal/sim,
//     internal/recovery, internal/trace: the executable platform model
//     with fault injection and recovery policies. internal/sim has one
//     executor: under one fault schedule it runs an engine per channel
//     across epochs, spans with a fixed slot layout at whose
//     boundaries tasks join and leave. Replay applies a timeline of
//     workload events (Admit, AdmitPartial, Remove, Revoke, Restore at
//     simulated instants) to a live online.Manager and executes the
//     epochs the accepted changes induce — each configuration swap
//     takes effect at the next slot-cycle boundary (mode-switch-safe,
//     Figure 2), in-flight jobs carry across each reshape, and per-task
//     statistics are kept per residency (one admission-to-departure
//     tenure). Simulator.Run, the static validation of one design, is
//     the one-epoch case. The engines are pooled across runs, like
//     analysis's patchScratch: a warm run reuses their window buffers,
//     heaps, task registry and job records, nothing a run returns
//     aliases them, and a warm run's allocations do not grow with its
//     horizon. The invariant Replay checks is the
//     executable analogue of the admission guarantee: every task the
//     manager admits meets every deadline released during its
//     residency. Reshapes that shrink or shift a channel's windows
//     displace under one slot-cycle period of backlog; since
//     minimal-slot configurations have zero scheduling margin that
//     backlog persists, and jobs late within one period per such
//     reshape are classified TransitionLate — the bounded mode-change
//     latency — apart from genuine misses;
//   - internal/metrics: a dependency-free, zero-allocation metrics
//     layer (atomic counters, float-bit gauges, power-of-two-bucket
//     histograms) with immutable Snapshot reads, an expvar bridge and
//     an HTTP JSON handler;
//   - internal/report: table and CSV rendering.
//
// # Observability
//
// Trace events say what happened; metrics say how much and how fast.
// The manager (online.NewMetrics + Manager.SetMetrics), the scenario
// runtime (sim.NewMetrics via ScenarioOptions.Metrics) and the chaos
// harness register their instruments in one metrics.Registry:
// reconfiguration outcomes, per-task admit/remove/shed/evict tallies,
// envelope patches versus fallbacks, patch and commit
// latency histograms, live-state gauges, replay throughput. The write
// side is a single atomic op per instrument, so the instrumented
// admit+remove cycle keeps its zero-allocation contract (the manager
// benchmark runs metered, and benchgate holds it at 0 allocs/op);
// reads are immutable snapshots, exact at quiescent points — which is
// how the chaos harness uses them, cross-checking every counter
// against its own tallies after each storm round. cmd/ftsim
// -metricsaddr serves the registry over HTTP (/metrics JSON,
// /debug/vars expvar) during -chaos and -scenario runs and both modes
// print the final snapshot.
//
// # Memory model of the hot path
//
// The admission and replay loops are allocation-light by construction,
// and the ownership rules are load-bearing. One patch algorithm
// (AddTasks/DropTasks, in place) serves two kinds of profile, frozen
// and exclusive, and the loops around it reuse per-owner scratch:
//
//   - Frozen, shared: compiled profiles (Compile, Problem.Compile) and
//     what-if results (WithTasks/WithoutTasks). A frozen profile is
//     settled and never written again, so an ancestor and its
//     descendants can be read concurrently forever. A what-if is a
//     clone, the patch, a settle and a freeze: the clone copies the
//     receiver's deadline stream, owner counts and demand row (a
//     float64, an int32 and an int64 per deadline point) and shares its
//     pruned pairs, which no profile writes in place; the settle prunes
//     the patched row once into an exactly sized slice.
//   - Exclusive, single-owner: Profile.Thawed and
//     analysis.CompileMutable produce profiles that AddTasks/DropTasks
//     patch in place: the stream, its owner counts and the demand row
//     grow when new deadlines widen the stream and keep that capacity,
//     so a steady-state admit+remove cycle is allocation-free. An EDF
//     patch leaves the profile unsettled — only an exclusive profile
//     ever is — and its owner's reads (MinQ, Pairs, MemStats) never
//     settle it; Equal and Check do, and a thaw copies it unsettled.
//     A departure whose walk leaves the row's capacity at
//     analysis.MaxMemRatio times its length reallocates it to exactly
//     its length, so a profile's storage stays proportional to its live
//     stream, and Profile.Check fails one that breaks the bound. The
//     online manager thaws each touched channel's profile on first
//     patch.
//   - Published, recycled: the manager's snapshot ring. Every commit,
//     Revoke's and Restore's included, rewrites a retired record's
//     live and parked sets from the current one and its delta, and the
//     commit-side sequence-number arrays alternate with it; a live
//     backing that must grow is sized to what it holds, not doubled.
//   - Scratch, per-owner, reused: the manager's touched-channel slice
//     and undo log (pooled per operation, Revoke and Restore too);
//     the sim engine's epoch buffers (service windows, fault and
//     corruption overlays, the epoch's joins and leaves), its job
//     records (recycled through a freelist at each job's terminal
//     event and at the horizon), its task registry and its concrete,
//     non-boxing heaps. The engines themselves are pooled across runs
//     like patchScratch: a run takes one per channel and returns it
//     emptied, dropping the run's log, recovery policy and stats and
//     clearing the task names it held. Nothing a run returns (its
//     Result, Replay's residencies, the trace) aliases an engine, so a
//     warm Simulator.Run allocates the same few dozen objects at any
//     horizon: its Result, one slab of residency stats per channel and
//     the run's bookkeeping. Scratch results are
//     valid until the owner's next cycle or epoch, never across it,
//     and never escape to readers.
//
// The bit-identity contract constrains all of it: every incremental or
// in-place path must produce exactly the result of the from-scratch
// oracle (a fresh Compile, the naive MinQ, the sim engine's linear-scan
// release path). EDF demand is an integer tick sum, so its terms may be
// added and removed in any order; everywhere else buffers may be reused
// but floating-point operation order may not change.
//
// CI enforces the performance side with cmd/benchgate: the headline
// benchmarks run against the checked-in BENCH_baseline.json and a >20%
// ns/op or allocs/op regression fails the build.
//
// A typical session: build a Problem, explore the feasible periods,
// solve for a design goal, and validate the result in simulation:
//
//	pr, _ := repro.NewProblem(repro.PaperTaskSet(), repro.EDF, 0.05)
//	sol, _ := repro.Design(pr, repro.MinOverheadBandwidth)
//	res, _ := repro.Simulate(sol.Config, pr.Tasks, pr.Alg, repro.SimOptions{})
//	fmt.Print(res.Summary())
package repro
