package online

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

// Manager op codes of FuzzManagerOps. Each op is an op byte followed by
// its arguments; a guest takes guestBytes bytes (see decodeGuest).
const (
	opAdmit       = iota // guest: Admit
	opPartial            // count byte (1–3 guests) + guests: AdmitBatchPartial
	opRemove             // index byte: Remove an in-system guest
	opRevoke             // fraction byte: Revoke part of the spare capacity
	opRestore            // fraction byte: Restore part of the revoked capacity
	opConsolidate        // Consolidate
	managerOps
)

// guestBytes is the encoded size of one guest: channel, period, three
// deadline bytes and the WCET.
const guestBytes = 6

// fuzzGrid holds the guests' periods: the light residents' grid, whose
// hyperperiod is 120, plus 7, which stretches every hyperperiod.
var fuzzGrid = []float64{4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120, 7}

// lightResidents is one light task per channel. Its max-flexibility
// period leaves every mode a supply delay near 3 time units, so a guest
// whose first deadline falls inside it must be charged its job there.
func lightResidents() task.Set {
	return task.Set{
		{Name: "r0", C: 0.5, T: 24, D: 24, Mode: task.FT, Channel: 0},
		{Name: "r1", C: 0.5, T: 30, D: 30, Mode: task.FS, Channel: 0},
		{Name: "r2", C: 1, T: 40, D: 40, Mode: task.FS, Channel: 1},
		{Name: "r3", C: 1, T: 20, D: 20, Mode: task.NF, Channel: 0},
		{Name: "r4", C: 1, T: 30, D: 30, Mode: task.NF, Channel: 1},
		{Name: "r5", C: 1, T: 40, D: 40, Mode: task.NF, Channel: 2},
		{Name: "r6", C: 1, T: 60, D: 60, Mode: task.NF, Channel: 3},
	}
}

// fuzzChannels lists the seven (mode, channel) pairs in order.
func fuzzChannels() [][2]int {
	var out [][2]int
	for _, m := range task.Modes() {
		for ch := 0; ch < m.Channels(); ch++ {
			out = append(out, [2]int{int(m), ch})
		}
	}
	return out
}

// decodeGuest reads one guest: channel b[0], period fuzzGrid[b[1]], a
// four-decimal deadline D = (1 + b[2]b[3]b[4] mod 10⁴T)/10⁴ — mostly
// off the residents' integer grid — and C = (1 + b[5])/500, at most D.
func decodeGuest(b []byte, name string) task.Task {
	chs := fuzzChannels()
	mc := chs[int(b[0])%len(chs)]
	T := fuzzGrid[int(b[1])%len(fuzzGrid)]
	k := (int(b[2])<<16 | int(b[3])<<8 | int(b[4])) % int(T*1e4)
	D := float64(1+k) / 1e4
	return task.Task{
		Name: name, C: min(float64(1+int(b[5]))/500, D), T: T, D: D,
		Mode: task.Mode(mc[0]), Channel: mc[1],
	}
}

// encodeGuest is decodeGuest's inverse for seed entries: a guest with
// period T and deadline D (four decimals) on channel index ch, with
// WCET byte c.
func encodeGuest(ch int, T, D float64, c byte) []byte {
	k := int(D*1e4+0.5) - 1
	return []byte{byte(ch), byte(slices.Index(fuzzGrid, T)), byte(k >> 16), byte(k >> 8), byte(k), c}
}

// managerSeed encodes a random schedule of steps ops from a math/rand
// source: mostly admissions and removals, with partial batches,
// revocations, restorations and consolidations mixed in.
func managerSeed(light bool, seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{0}
	if light {
		out[0] = 1
	}
	guest := func() []byte {
		b := make([]byte, guestBytes)
		rng.Read(b)
		return b
	}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 4:
			out = append(append(out, opAdmit), guest()...)
		case op < 5:
			n := 1 + rng.Intn(3)
			out = append(out, opPartial, byte(n-1))
			for j := 0; j < n; j++ {
				out = append(out, guest()...)
			}
		case op < 8:
			out = append(out, opRemove, byte(rng.Intn(256)))
		case op < 9:
			out = append(out, byte(opRevoke+rng.Intn(2)), byte(rng.Intn(256)))
		default:
			out = append(out, opConsolidate)
		}
	}
	return out
}

// FuzzManagerOps drives a Manager through decoded op sequences —
// admissions, partial admissions, removals, revocations, restorations
// and consolidations, with off-grid guests — and after every op checks
// the theorem oracle (Verify), the envelope audit (CheckProfiles),
// task conservation and bit-identity of the live configuration with a
// fresh ConfigFor solve. The first byte picks the residents: the
// paper's set or lightResidents, each at the minimal-slot configuration
// of its max-flexibility period. `go test` replays the seed corpus;
// `go test -fuzz=FuzzManagerOps` explores mutations.
func FuzzManagerOps(f *testing.F) {
	// The off-grid shape of the admission benchmark's notes: a guest
	// due at 2.5665 with period 4. With its first job uncounted, the
	// manager admitted it and Verify rejected the result.
	f.Add(append([]byte{1, opAdmit}, encodeGuest(0, 4, 2.5665, 24)...))
	f.Add(managerSeed(false, 1, 40))
	f.Add(managerSeed(true, 2, 40))
	f.Fuzz(runManagerOps)
}

// runManagerOps is FuzzManagerOps' property over one input.
func runManagerOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	if len(data) > 256 {
		data = data[:256]
	}
	pr := core.Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: core.UniformOverheads(task.PaperOverheadTotal)}
	if data[0]%2 == 1 {
		pr.Tasks = lightResidents()
	}
	sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cp.ConfigFor(sol.Config.P)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerFromCompiled(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inSystem := map[string]bool{}
	next, nguest := 1, 0
	arg := func() byte {
		if next >= len(data) {
			return 0
		}
		next++
		return data[next-1]
	}
	guest := func() task.Task {
		var b [guestBytes]byte
		for i := range b {
			b[i] = arg()
		}
		nguest++
		return decodeGuest(b[:], fmt.Sprintf("g%d", nguest))
	}
	for step := 0; next < len(data); step++ {
		var what string
		switch op := arg() % managerOps; op {
		case opAdmit:
			g := guest()
			what = fmt.Sprintf("admit %+v", g)
			if m.Admit(g) == nil {
				inSystem[g.Name] = true
			}
		case opPartial:
			batch := make(task.Set, 1+int(arg())%3)
			for i := range batch {
				batch[i] = guest()
			}
			what = fmt.Sprintf("partial %+v", batch)
			rep, err := m.AdmitBatchPartial(batch, Policy{})
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			for _, g := range rep.Admitted {
				inSystem[g.Name] = true
			}
		case opRemove:
			i := int(arg())
			names := make([]string, 0, len(inSystem))
			for name := range inSystem {
				names = append(names, name)
			}
			if len(names) == 0 {
				continue
			}
			slices.Sort(names)
			name := names[i%len(names)]
			what = "remove " + name
			if err := m.Remove(name); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			delete(inSystem, name)
		case opRevoke:
			c := float64(1+int(arg())) / 256 * (m.Config().P - m.Revoked())
			what = fmt.Sprintf("revoke %g", c)
			if _, err := m.Revoke(c, Policy{}); err != nil {
				what += " (rejected)" // more than even the residents' overheads leave
			}
		case opRestore:
			c := float64(1+int(arg())) / 256 * m.Revoked()
			if c <= 0 {
				continue
			}
			what = fmt.Sprintf("restore %g", c)
			if _, err := m.Restore(c, Policy{}); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
		case opConsolidate:
			what = "consolidate"
			m.Consolidate()
		}
		checkManager(t, m, pr, inSystem, fmt.Sprintf("step %d (%s)", step, what))
	}
}

// checkManager asserts the manager's quiescent-point invariants.
func checkManager(t *testing.T, m *Manager, pr core.Problem, inSystem map[string]bool, stage string) {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", stage, err)
	}
	if err := m.CheckProfiles(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	// Conservation: live ∪ parked is exactly residents ∪ in-system
	// guests, each once.
	seen := map[string]int{}
	for _, tk := range append(m.Tasks(), m.Parked()...) {
		seen[tk.Name]++
	}
	for _, tk := range pr.Tasks {
		if seen[tk.Name] != 1 {
			t.Fatalf("%s: resident %s held %d times", stage, tk.Name, seen[tk.Name])
		}
	}
	for name := range inSystem {
		if seen[name] != 1 {
			t.Fatalf("%s: guest %s held %d times", stage, name, seen[name])
		}
	}
	if len(seen) != len(pr.Tasks)+len(inSystem) {
		t.Fatalf("%s: %d tasks held, want %d residents + %d guests", stage, len(seen), len(pr.Tasks), len(inSystem))
	}
	configOracle(t, m, pr, stage)
}
