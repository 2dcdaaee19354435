package online

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	opAdmit   = iota // guest: Admit
	opPartial        // count byte (1–3 guests) + guests: AdmitBatchPartial
	opRemove         // count byte (1–3) + index bytes: RemoveBatch of held tasks
	opRevoke         // fraction byte: Revoke part of the spare capacity
	opRestore        // fraction byte: Restore part of the revoked capacity
	opDrain          // RemoveBatch of every held guest, live or parked
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

// fuzzAlgs are the algorithms FuzzManagerOps' first byte picks from.
var fuzzAlgs = []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM}

// managerHead encodes FuzzManagerOps' first byte: the residents (the
// paper's set, or lightResidents) and the algorithm.
func managerHead(light bool, alg analysis.Alg) byte {
	b := byte(2 * slices.Index(fuzzAlgs, alg))
	if light {
		b++
	}
	return b
}

// managerSeed encodes a random schedule of steps ops from a math/rand
// source: mostly admissions and removals, with partial batches,
// revocations, restorations and drains mixed in.
func managerSeed(light bool, alg analysis.Alg, seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{managerHead(light, alg)}
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
			n := 1 + rng.Intn(2)
			out = append(out, opRemove, byte(n-1))
			for j := 0; j < n; j++ {
				out = append(out, byte(rng.Intn(256)))
			}
		case op < 9:
			out = append(out, byte(opRevoke+rng.Intn(2)), byte(rng.Intn(256)))
		default:
			out = append(out, opDrain)
		}
	}
	return out
}

// FuzzManagerOps drives a Manager through decoded op sequences —
// admissions, partial admissions, batch removals, revocations,
// restorations and drains, with off-grid guests — and after every op
// checks the theorem oracle (Verify), the envelope audit
// (CheckProfiles, which also holds every EDF row to the
// analysis.MaxMemRatio bound that drains exercise), bit-identity of the
// live configuration with a fresh
// ConfigFor solve, and the published order against a reference model:
// admissions and readmissions are appended, departures are removed in
// place, and evictions go to the parked list in eviction order, so
// Tasks and Parked must equal the model exactly. The first byte picks
// the residents (the paper's set or lightResidents, each at the
// minimal-slot configuration of its max-flexibility period) and the
// algorithm (EDF, RM or DM). `go test` replays the seed corpus;
// `go test -fuzz=FuzzManagerOps` explores mutations.
func FuzzManagerOps(f *testing.F) {
	// The off-grid shape of the admission benchmark's notes: a guest
	// due at 2.5665 with period 4. With its first job uncounted, the
	// manager admitted it and Verify rejected the result.
	f.Add(append([]byte{1, opAdmit}, encodeGuest(0, 4, 2.5665, 24)...))
	f.Add(managerSeed(false, analysis.EDF, 1, 40))
	f.Add(managerSeed(true, analysis.EDF, 2, 40))
	f.Add(managerSeed(false, analysis.RM, 3, 40))
	f.Add(managerSeed(true, analysis.DM, 4, 40))
	// Removals from the middle of the live set, across channels: four
	// guests on FT/0, NF/0, NF/2 and FS/0 join the light residents, then
	// one batch removes the second and third guests and resident r3
	// (held names sort g1…g4, r0…r6, so indices 1, 2 and 7), and a
	// second batch removes r0 and the first guest.
	middle := []byte{managerHead(true, analysis.EDF)}
	for _, ch := range []int{0, 3, 5, 1} {
		middle = append(append(middle, opAdmit), encodeGuest(ch, 12, 12, 4)...)
	}
	middle = append(middle, opRemove, 2, 1, 2, 7, opRemove, 1, 2, 0)
	f.Add(middle)
	f.Fuzz(runManagerOps)
}

// managerModel is FuzzManagerOps' reference model of the published
// order: the live tasks and the parked ones, as Tasks and Parked must
// return them.
type managerModel struct {
	live, parked task.Set
}

// remove deletes the named task in place from whichever list holds it.
func (md *managerModel) remove(name string) {
	byName := func(t task.Task) bool { return t.Name == name }
	md.live = slices.DeleteFunc(md.live, byName)
	md.parked = slices.DeleteFunc(md.parked, byName)
}

// held returns the names of every live or parked task, sorted.
func (md *managerModel) held() []string {
	names := append(md.live.Names(), md.parked.Names()...)
	slices.Sort(names)
	return names
}

// runManagerOps is FuzzManagerOps' property over one input.
func runManagerOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	if len(data) > 256 {
		data = data[:256]
	}
	pr := core.Problem{Tasks: task.PaperTaskSet(), Alg: fuzzAlgs[int(data[0]/2)%len(fuzzAlgs)], O: core.UniformOverheads(task.PaperOverheadTotal)}
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
	model := &managerModel{live: slices.Clone(pr.Tasks)}
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
				model.live = append(model.live, g.Normalized())
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
			model.live = append(model.live, rep.Admitted...)
		case opRemove:
			held := model.held()
			if len(held) == 0 {
				continue
			}
			var names []string
			for n := 1 + int(arg())%3; n > 0; n-- {
				if name := held[int(arg())%len(held)]; !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
			what = fmt.Sprintf("remove %v", names)
			if err := m.RemoveBatch(names); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			for _, name := range names {
				model.remove(name)
			}
		case opRevoke:
			c := float64(1+int(arg())) / 256 * (m.Config().P - m.Revoked())
			what = fmt.Sprintf("revoke %g", c)
			rep, err := m.Revoke(c, Policy{})
			if err != nil {
				what += " (rejected)" // more than even the residents' overheads leave
				break
			}
			for _, ev := range rep.Evicted {
				model.remove(ev.Name)
			}
			model.parked = append(model.parked, rep.Evicted...)
		case opRestore:
			c := float64(1+int(arg())) / 256 * m.Revoked()
			if c <= 0 {
				continue
			}
			what = fmt.Sprintf("restore %g", c)
			rep, err := m.Restore(c, Policy{})
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			for _, back := range rep.Readmitted {
				model.remove(back.Name)
			}
			model.live = append(model.live, rep.Readmitted...)
		case opDrain:
			var names []string
			for _, name := range model.held() {
				if strings.HasPrefix(name, "g") { // guests are g1, g2, …
					names = append(names, name)
				}
			}
			if len(names) == 0 {
				continue
			}
			what = fmt.Sprintf("drain %v", names)
			if err := m.RemoveBatch(names); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			for _, name := range names {
				model.remove(name)
			}
		}
		checkManager(t, m, pr, model, fmt.Sprintf("step %d (%s)", step, what))
	}
}

// checkManager asserts the manager's quiescent-point invariants.
func checkManager(t *testing.T, m *Manager, pr core.Problem, model *managerModel, stage string) {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", stage, err)
	}
	if err := m.CheckProfiles(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if got := m.Tasks(); !slices.Equal(got, model.live) {
		t.Fatalf("%s: Tasks() = %v, the model has %v", stage, got.Names(), model.live.Names())
	}
	if got := m.Parked(); !slices.Equal(got, model.parked) {
		t.Fatalf("%s: Parked() = %v, the model has %v", stage, got.Names(), model.parked.Names())
	}
	configOracle(t, m, pr, stage)
}
