package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/task"
	"repro/internal/timeu"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	in := &ScenarioFile{
		HorizonUnits:  120,
		SettlePeriods: -1,
		Scenario: Scenario{Events: []WorkloadEvent{
			{At: timeu.FromUnits(5), Kind: EventAdmit, Tasks: task.Set{
				{Name: "g1", C: 0.05, T: 8, D: 8, Mode: task.NF, Channel: 2},
			}},
			{At: timeu.FromUnits(10.25), Kind: EventAdmitPartial, Tasks: task.Set{
				{Name: "g2", C: 0.1, T: 12, D: 10, Mode: task.FS, Channel: 1},
			}},
			{At: timeu.FromUnits(20), Kind: EventRemove, Names: []string{"g1"}},
			{At: timeu.FromUnits(30), Kind: EventRevoke, Capacity: 0.25},
			{At: timeu.FromUnits(40), Kind: EventRestore, Capacity: 0.25},
		}},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.HorizonUnits != in.HorizonUnits || out.SettlePeriods != in.SettlePeriods {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Scenario.Events) != len(in.Scenario.Events) {
		t.Fatalf("event count %d, want %d", len(out.Scenario.Events), len(in.Scenario.Events))
	}
	for i, got := range out.Scenario.Events {
		want := in.Scenario.Events[i]
		if got.At != want.At || got.Kind != want.Kind || got.Capacity != want.Capacity {
			t.Errorf("event %d: got %+v want %+v", i, got, want)
		}
		if len(got.Tasks) != len(want.Tasks) || len(got.Names) != len(want.Names) {
			t.Errorf("event %d: payload size mismatch", i)
			continue
		}
		for j := range got.Tasks {
			if got.Tasks[j] != want.Tasks[j] {
				t.Errorf("event %d task %d: got %+v want %+v", i, j, got.Tasks[j], want.Tasks[j])
			}
		}
	}
}

// badScenarios are scenario files ReadScenario must reject.
var badScenarios = map[string]string{
	"unknown kind":    `{"events":[{"at":1,"kind":"explode"}]}`,
	"negative at":     `{"events":[{"at":-1,"kind":"remove","names":["a"]}]}`,
	"admit no tasks":  `{"events":[{"at":1,"kind":"admit"}]}`,
	"remove no names": `{"events":[{"at":1,"kind":"remove"}]}`,
	"revoke zero":     `{"events":[{"at":1,"kind":"revoke"}]}`,
	"unknown field":   `{"events":[{"at":1,"kind":"remove","names":["a"],"bogus":1}]}`,
	// 1e10 units overflow int64 ticks; 5e6 fit but no longer round-trip.
	"at overflows ticks":    `{"events":[{"at":1e10,"kind":"remove","names":["a"]}]}`,
	"at past round-trip":    `{"events":[{"at":5e6,"kind":"remove","names":["a"]}]}`,
	"horizon past range":    `{"horizon":1e10,"events":[]}`,
	"admit negative C":      `{"events":[{"at":1,"kind":"admit","tasks":[{"name":"g","c":-1,"t":8,"mode":"NF","channel":0}]}]}`,
	"admit zero T":          `{"events":[{"at":1,"kind":"admit","tasks":[{"name":"g","c":0.1,"t":0,"mode":"NF","channel":0}]}]}`,
	"admit channel 9":       `{"events":[{"at":1,"kind":"admit-partial","tasks":[{"name":"g","c":0.1,"t":8,"mode":"NF","channel":9}]}]}`,
	"admit duplicate names": `{"events":[{"at":1,"kind":"admit","tasks":[{"name":"g","c":0.1,"t":8,"mode":"NF","channel":0},{"name":"g","c":0.1,"t":8,"mode":"NF","channel":1}]}]}`,
}

func TestScenarioJSONRejectsBadInput(t *testing.T) {
	for name, src := range badScenarios {
		if _, err := ReadScenario(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}

// FuzzScenarioFile checks the scenario DSL on arbitrary bytes:
// ReadScenario either rejects the input or accepts a file that WriteJSON
// writes back and ReadScenario reads to an equal ScenarioFile. It never
// panics.
func FuzzScenarioFile(f *testing.F) {
	f.Add([]byte(`{
	  "horizon": 360,
	  "settle_periods": 1,
	  "events": [
	    {"at": 12.5, "kind": "admit",
	     "tasks": [{"name": "g1", "c": 0.05, "t": 8, "mode": "NF", "channel": 2}]},
	    {"at": 20,   "kind": "admit-partial", "tasks": [{"name": "g2", "c": 0.1, "t": 12, "d": 10, "mode": "FS", "channel": 1}]},
	    {"at": 28,   "kind": "remove",  "names": ["g1"]},
	    {"at": 40,   "kind": "revoke",  "capacity": 0.3},
	    {"at": 55,   "kind": "restore", "capacity": 0.3}
	  ]
	}`))
	for _, src := range badScenarios {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ReadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sf.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		back, err := ReadScenario(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadScenario rejects what WriteJSON wrote: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(sf, back) {
			t.Fatalf("round trip changed the scenario:\nread    %+v\nreread  %+v\nwritten %s", sf, back, buf.Bytes())
		}
	})
}
