package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/task"
	"repro/internal/timeu"
)

// ScenarioFile is the decoded form of a scenario JSON file — the
// reproducible-workload DSL behind `ftsim -scenariofile`. Times in the
// file are float64 time units (the same scale task parameters use), at
// most maxScenarioUnits; decoding converts them to ticks. Admission
// batches are validated like task-set files (task.ReadJSON).
//
// The wire format:
//
//	{
//	  "horizon": 360,
//	  "settle_periods": 1,
//	  "events": [
//	    {"at": 12.5, "kind": "admit",
//	     "tasks": [{"name": "g1", "c": 0.05, "t": 8, "mode": "NF", "channel": 2}]},
//	    {"at": 20,   "kind": "admit-partial", "tasks": [...]},
//	    {"at": 28,   "kind": "remove",  "names": ["g1"]},
//	    {"at": 40,   "kind": "revoke",  "capacity": 0.3},
//	    {"at": 55,   "kind": "restore", "capacity": 0.3}
//	  ]
//	}
type ScenarioFile struct {
	// HorizonUnits optionally fixes the simulated duration in time
	// units; zero defers to the caller's default.
	HorizonUnits float64
	// SettlePeriods is ScenarioOptions.SettlePeriods: 0 = default (1),
	// negative = no settling.
	SettlePeriods int
	// Scenario is the decoded timeline.
	Scenario Scenario
}

// maxScenarioUnits bounds a scenario file's instants and horizon, in
// time units. Up to it an instant survives WriteJSON → ReadScenario
// exactly: its tick count stays under 2^51, where Ticks.Units and the
// FromUnits that reads the written value back err by less than half a
// tick together. Scenarios span a few hundred units; int64 ticks
// overflow near 9.2e9.
const maxScenarioUnits = 1e6

type scenarioJSON struct {
	Horizon       float64     `json:"horizon,omitempty"`
	SettlePeriods int         `json:"settle_periods,omitempty"`
	Events        []eventJSON `json:"events"`
}

type eventJSON struct {
	At       float64  `json:"at"`
	Kind     string   `json:"kind"`
	Tasks    task.Set `json:"tasks,omitempty"`
	Names    []string `json:"names,omitempty"`
	Capacity float64  `json:"capacity,omitempty"`
}

// ParseEventKind parses the textual event kinds used in scenario files —
// the inverse of EventKind.String.
func ParseEventKind(s string) (EventKind, error) {
	for k := EventAdmit; k <= EventRestore; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown event kind %q (want admit, admit-partial, remove, revoke or restore)", s)
}

// ReadScenario parses and validates a scenario JSON file.
func ReadScenario(r io.Reader) (*ScenarioFile, error) {
	var raw scenarioJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("sim: parsing scenario file: %w", err)
	}
	if raw.Horizon < 0 || raw.Horizon > maxScenarioUnits {
		return nil, fmt.Errorf("sim: scenario horizon %g outside [0, %g]", raw.Horizon, maxScenarioUnits)
	}
	sf := &ScenarioFile{HorizonUnits: raw.Horizon, SettlePeriods: raw.SettlePeriods}
	for i, e := range raw.Events {
		kind, err := ParseEventKind(e.Kind)
		if err != nil {
			return nil, fmt.Errorf("sim: event %d: %w", i, err)
		}
		if e.At < 0 || e.At > maxScenarioUnits {
			return nil, fmt.Errorf("sim: event %d (%s): instant %g outside [0, %g]", i, e.Kind, e.At, maxScenarioUnits)
		}
		ev := WorkloadEvent{At: timeu.FromUnits(e.At), Kind: kind}
		switch kind {
		case EventAdmit, EventAdmitPartial:
			if len(e.Tasks) == 0 {
				return nil, fmt.Errorf("sim: event %d (%s): needs a non-empty tasks list", i, e.Kind)
			}
			// Decoding normalised each task (task.Task.UnmarshalJSON).
			if err := e.Tasks.Validate(); err != nil {
				return nil, fmt.Errorf("sim: event %d (%s): %w", i, e.Kind, err)
			}
			ev.Tasks = e.Tasks
		case EventRemove:
			if len(e.Names) == 0 {
				return nil, fmt.Errorf("sim: event %d (%s): needs a non-empty names list", i, e.Kind)
			}
			ev.Names = e.Names
		case EventRevoke, EventRestore:
			if e.Capacity <= 0 {
				return nil, fmt.Errorf("sim: event %d (%s): capacity %g must be positive", i, e.Kind, e.Capacity)
			}
			ev.Capacity = e.Capacity
		}
		sf.Scenario.Events = append(sf.Scenario.Events, ev)
	}
	return sf, nil
}

// WriteJSON writes the scenario as an indented JSON file, the inverse
// of ReadScenario — used to persist generated timelines so a profiling
// or regression run can be replayed exactly.
func (sf *ScenarioFile) WriteJSON(w io.Writer) error {
	raw := scenarioJSON{Horizon: sf.HorizonUnits, SettlePeriods: sf.SettlePeriods}
	for _, ev := range sf.Scenario.Events {
		e := eventJSON{At: ev.At.Units(), Kind: ev.Kind.String()}
		switch ev.Kind {
		case EventAdmit, EventAdmitPartial:
			e.Tasks = ev.Tasks
		case EventRemove:
			e.Names = ev.Names
		case EventRevoke, EventRestore:
			e.Capacity = ev.Capacity
		}
		raw.Events = append(raw.Events, e)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(raw)
}
