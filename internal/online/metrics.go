package online

import "repro/internal/metrics"

// Metrics is the manager's instrument set: counters for every
// reconfiguration outcome, latency histograms for the two phases of a
// batch (the profile-patch section under the channel locks and the
// decide-and-swap section under commitMu), and gauges tracking the
// published state. All instruments live in a metrics.Registry so other
// layers (the scenario runtime, the chaos harness, an HTTP exporter)
// can share one registry; the write side is purely atomic, so
// installing Metrics on a Manager adds zero allocations to the
// admit+remove cycle.
//
// Conservation semantics (what the chaos harness asserts at quiescent
// points):
//
//   - AdmitBatches / RemoveBatches / PartialBatches count successful
//     non-empty calls; AdmitRejected / RemoveRejected count failed
//     calls (each retried attempt of a Backoff loop counts).
//   - TasksAdmitted counts tasks entering the live set through
//     AdmitBatch and the admitted part of AdmitBatchPartial;
//     TasksRemoved counts tasks leaving through RemoveBatch (live or
//     parked); TasksShed counts partial-admission shed verdicts.
//   - TasksEvicted / TasksReadmitted count the Revoke/Restore park
//     cycle, separate from admit/remove.
//   - EnvelopePatches / EnvelopeFallbacks / Consolidations mirror the
//     profile-patch housekeeping the trace events report: in-place
//     patches applied, full-recompile bailouts, and from-scratch
//     channel rebuilds.
type Metrics struct {
	AdmitBatches   *metrics.Counter
	AdmitRejected  *metrics.Counter
	RemoveBatches  *metrics.Counter
	RemoveRejected *metrics.Counter
	PartialBatches *metrics.Counter

	TasksAdmitted   *metrics.Counter
	TasksRemoved    *metrics.Counter
	TasksShed       *metrics.Counter
	Revokes         *metrics.Counter
	Restores        *metrics.Counter
	TasksEvicted    *metrics.Counter
	TasksReadmitted *metrics.Counter

	EnvelopePatches   *metrics.Counter
	EnvelopeFallbacks *metrics.Counter
	Consolidations    *metrics.Counter

	PatchLatency  *metrics.Histogram
	CommitLatency *metrics.Histogram

	LiveTasks        *metrics.Gauge
	ParkedTasks      *metrics.Gauge
	RevokedCapacity  *metrics.Gauge
	Slack            *metrics.Gauge
	EnvelopeMemRatio *metrics.Gauge
}

// NewMetrics registers the manager instrument set under the "online."
// namespace of reg. Registration is idempotent, so several managers
// (or repeated calls) sharing one registry share the instruments.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		AdmitBatches:   reg.Counter("online.admit.batches"),
		AdmitRejected:  reg.Counter("online.admit.rejected"),
		RemoveBatches:  reg.Counter("online.remove.batches"),
		RemoveRejected: reg.Counter("online.remove.rejected"),
		PartialBatches: reg.Counter("online.partial.batches"),

		TasksAdmitted:   reg.Counter("online.tasks.admitted"),
		TasksRemoved:    reg.Counter("online.tasks.removed"),
		TasksShed:       reg.Counter("online.tasks.shed"),
		Revokes:         reg.Counter("online.revokes"),
		Restores:        reg.Counter("online.restores"),
		TasksEvicted:    reg.Counter("online.tasks.evicted"),
		TasksReadmitted: reg.Counter("online.tasks.readmitted"),

		EnvelopePatches:   reg.Counter("online.envelope.patches"),
		EnvelopeFallbacks: reg.Counter("online.envelope.fallbacks"),
		Consolidations:    reg.Counter("online.consolidations"),

		PatchLatency:  reg.Histogram("online.patch_ns"),
		CommitLatency: reg.Histogram("online.commit_ns"),

		LiveTasks:        reg.Gauge("online.live_tasks"),
		ParkedTasks:      reg.Gauge("online.parked_tasks"),
		RevokedCapacity:  reg.Gauge("online.revoked_capacity"),
		Slack:            reg.Gauge("online.slack"),
		EnvelopeMemRatio: reg.Gauge("online.envelope.mem_ratio"),
	}
}
