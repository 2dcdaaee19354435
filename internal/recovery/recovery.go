// Package recovery implements software fault-recovery policies for jobs
// killed by fail-silent channel shutdowns — the checkpointing and
// primary/backup techniques the paper's Section 5 plans to combine with
// the scheduling scheme (citing Caccamo–Buttazzo [11] and
// Mossé–Melhem–Ghosh [17]).
//
// A policy is consulted when the checker silences an FS channel while a
// job is executing. It may re-issue the job (a backup copy, or the
// checkpointed remainder) on the same channel; whether the backup still
// meets the deadline is then decided by the simulation itself.
package recovery

import (
	"repro/internal/sim"
	"repro/internal/timeu"
)

// PrimaryBackup re-issues one full backup copy per primary job: the
// backup restarts from scratch (no state survives the silenced channel)
// with the same absolute deadline. A backup that is itself aborted is
// not retried — under the single-transient-fault assumption a second
// fault cannot hit before recovery completes, so one backup suffices.
type PrimaryBackup struct{}

// OnAbort returns a fresh copy of the job unless it already is a backup.
func (PrimaryBackup) OnAbort(j sim.Job, now timeu.Ticks) (sim.Job, bool) {
	if j.Backup {
		return sim.Job{}, false
	}
	j.Backup = true
	j.Remaining = j.Total
	j.Corrupted = false
	return j, true
}

// Checkpoint resumes aborted jobs from their last state: the job keeps
// the progress it had made (an idealised zero-cost checkpoint at every
// instant), so only the residual work is re-queued. MaxRetries bounds
// how many times one job may resume; 0 means unlimited.
type Checkpoint struct {
	// Overhead is added to the residual work on every resume, modelling
	// the cost of restoring the checkpoint.
	Overhead timeu.Ticks
	// MaxRetries bounds resumes per job; 0 = unlimited.
	MaxRetries int

	retries map[string]int // per task name; jobs are keyed coarsely
}

// OnAbort resumes the job with its remaining work plus the restore
// overhead.
func (c *Checkpoint) OnAbort(j sim.Job, now timeu.Ticks) (sim.Job, bool) {
	if c.MaxRetries > 0 {
		if c.retries == nil {
			c.retries = make(map[string]int)
		}
		if c.retries[j.TaskName] >= c.MaxRetries {
			return sim.Job{}, false
		}
		c.retries[j.TaskName]++
	}
	j.Backup = true
	j.Remaining += c.Overhead
	return j, true
}
