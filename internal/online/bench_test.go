package online

import (
	"fmt"
	"testing"

	"repro/internal/task"
)

// totalPatches sums the per-channel incremental-patch counters.
func totalPatches(m *Manager) int {
	n := 0
	for _, mode := range task.Modes() {
		for _, st := range m.channels[mode] {
			st.mu.Lock()
			n += st.patches
			st.mu.Unlock()
		}
	}
	return n
}

// BenchmarkPartialAdmission admits a batch of eight where m members are
// whales the value policy must shed. The patches/op metric exposes the
// claimed cost model: one patch per touched channel for the batch plus
// one extra patch per shed member — O(m) extra work for shedding m of
// k, not a recompile of the channel per candidate.
func BenchmarkPartialAdmission(b *testing.B) {
	const batchSize = 8
	pol := Policy{Value: func(t task.Task) float64 {
		if t.C > 1 {
			return 0 // whales go first
		}
		return 1
	}}
	for _, shed := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("shed=%d", shed), func(b *testing.B) {
			b.ReportAllocs()
			m, _, _ := minimalManager(b)
			batch := make([]task.Task, batchSize)
			for i := range batch {
				t := task.Task{
					Name: fmt.Sprintf("g%d", i),
					C:    0.005, T: 10,
					Mode: task.NF, Channel: i % 4,
				}
				if i < shed {
					t.C = 2.5 // far beyond the slack: always shed
				}
				batch[i] = t
			}
			admitPatches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pre := totalPatches(m)
				b.StartTimer()
				report, err := m.AdmitBatchPartial(batch, pol)
				if err != nil {
					b.Fatal(err)
				}
				if len(report.Rejected) != shed {
					b.Fatalf("shed %d members, want %d", len(report.Rejected), shed)
				}
				b.StopTimer()
				admitPatches += totalPatches(m) - pre
				if err := m.RemoveBatch(report.Admitted.Names()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(admitPatches)/float64(b.N), "patches/op")
		})
	}
}

// BenchmarkRevokeRestore cycles a capacity loss that evicts four guests
// and a recovery that readmits them.
func BenchmarkRevokeRestore(b *testing.B) {
	b.ReportAllocs()
	m, _, _ := minimalManager(b)
	guests := make([]task.Task, 4)
	for i := range guests {
		guests[i] = task.Task{
			Name: fmt.Sprintf("g%d", i),
			C:    0.1, T: 10,
			Mode: task.NF, Channel: 3,
		}
	}
	slackBefore := m.Slack()
	if err := m.AdmitBatch(guests); err != nil {
		b.Fatal(err)
	}
	cost := slackBefore - m.Slack()
	share := m.Slack() + cost // evicts exactly the guests
	pol := Policy{Value: func(t task.Task) float64 {
		if t.T == 10 && t.C == 0.1 {
			return 0
		}
		return 1
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Revoke(share, pol)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Evicted) != len(guests) {
			b.Fatalf("evicted %d, want the %d guests", len(rep.Evicted), len(guests))
		}
		if _, err := m.Restore(share, pol); err != nil {
			b.Fatal(err)
		}
	}
}
