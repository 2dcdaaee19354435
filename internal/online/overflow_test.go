package online

import (
	"reflect"
	"testing"

	"repro/internal/task"
)

// TestAdmitUnrepresentableHorizonIsAnError admits batches whose EDF
// hyperperiod cannot be analysed: a period beyond the int64 tick range,
// valid periods whose LCM overflows int64, and a period so short that
// the deadline stream of NF channel 0 (τ1, hyperperiod 6) would exceed
// points.MaxStream. Each must be rejected with an error and leave the
// manager as it was.
func TestAdmitUnrepresentableHorizonIsAnError(t *testing.T) {
	m := maxFlexManager(t)
	cfg, tasks := m.Config(), m.Tasks()
	for _, batch := range [][]task.Task{
		{{Name: "huge", C: 1, T: 1e300, Mode: task.NF}},
		{
			{Name: "p7", C: 0.01, T: 7.000001, Mode: task.NF},
			{Name: "p5", C: 0.01, T: 5.000003, Mode: task.NF},
			{Name: "p3", C: 0.01, T: 3.000007, Mode: task.NF},
		},
		{{Name: "tiny", C: 1e-7, T: 1e-6, Mode: task.NF}},
	} {
		if err := m.AdmitBatch(batch); err == nil {
			t.Errorf("AdmitBatch(%v): want an error", batch)
		}
		if got := m.Config(); got != cfg {
			t.Errorf("config changed to %+v, was %+v", got, cfg)
		}
		if got := m.Tasks(); !reflect.DeepEqual(got, tasks) {
			t.Errorf("tasks changed to %v", got)
		}
		if err := m.Verify(); err != nil {
			t.Error(err)
		}
		if err := m.CheckProfiles(); err != nil {
			t.Error(err)
		}
	}
}
