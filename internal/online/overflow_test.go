package online

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/task"
)

// TestAdmitUnrepresentableHorizonIsAnError admits batches whose EDF
// hyperperiod cannot be analysed: a period beyond the int64 tick range,
// valid periods whose LCM overflows int64, and a period so short that
// the deadline stream of NF channel 0 (τ1, hyperperiod 6) would exceed
// points.MaxStream. Each must be rejected, through AdmitBatch and
// through AdmitBatchPartial, with a verdict naming every batch member —
// invalid with the analysis error on the failing channel, rejected on
// the others — and leave the manager as it was.
func TestAdmitUnrepresentableHorizonIsAnError(t *testing.T) {
	m := maxFlexManager(t)
	cfg, tasks := m.Config(), m.Tasks()
	// An admissible member on another channel, patched before NF
	// channel 0 and rolled back with it.
	bystander := task.Task{Name: "ok", C: 0.01, T: 12, D: 12, Mode: task.FT}
	for _, batch := range [][]task.Task{
		{{Name: "huge", C: 1, T: 1e300, Mode: task.NF}, bystander},
		{
			{Name: "p7", C: 0.01, T: 7.000001, Mode: task.NF},
			{Name: "p5", C: 0.01, T: 5.000003, Mode: task.NF},
			{Name: "p3", C: 0.01, T: 3.000007, Mode: task.NF},
		},
		{{Name: "tiny", C: 1e-7, T: 1e-6, Mode: task.NF}},
	} {
		checkVerdicts := func(entry string, verdicts []TaskVerdict) {
			t.Helper()
			if len(verdicts) != len(batch) {
				t.Fatalf("%s: %d verdicts for a batch of %d: %v", entry, len(verdicts), len(batch), verdicts)
			}
			for i, v := range verdicts {
				want := VerdictInvalid
				if batch[i].Mode != task.NF {
					want = VerdictRejected
				}
				if v.Task.Name != batch[i].Name || v.Code != want || v.Detail == "" {
					t.Errorf("%s: verdict %d is %v, want task %q %s with a detail", entry, i, v, batch[i].Name, want)
				}
			}
		}
		err := m.AdmitBatch(batch)
		var rej *Rejection
		if !errors.As(err, &rej) {
			t.Fatalf("AdmitBatch(%v) = %v, want a *Rejection", batch, err)
		}
		checkVerdicts("AdmitBatch", rej.Verdicts)
		rep, err := m.AdmitBatchPartial(batch, Policy{})
		if err != nil {
			t.Fatalf("AdmitBatchPartial(%v): %v", batch, err)
		}
		if len(rep.Admitted) != 0 || rep.Err() == nil {
			t.Errorf("AdmitBatchPartial(%v) admitted %v, err %v; want nothing admitted and an error", batch, rep.Admitted, rep.Err())
		}
		checkVerdicts("AdmitBatchPartial", rep.Rejected)
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
