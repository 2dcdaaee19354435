package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModeChannels(t *testing.T) {
	cases := []struct {
		m        Mode
		channels int
		cores    int
		str      string
	}{
		{FT, 1, 4, "FT"},
		{FS, 2, 2, "FS"},
		{NF, 4, 1, "NF"},
	}
	for _, c := range cases {
		if got := c.m.Channels(); got != c.channels {
			t.Errorf("%s.Channels() = %d, want %d", c.str, got, c.channels)
		}
		if got := c.m.CoresPerChannel(); got != c.cores {
			t.Errorf("%s.CoresPerChannel() = %d, want %d", c.str, got, c.cores)
		}
		if got := c.m.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		// Channels × CoresPerChannel must always use the full 4-core chip.
		if c.channels*c.cores != 4 {
			t.Errorf("%s: channels*cores = %d, want 4", c.str, c.channels*c.cores)
		}
	}
	if Mode(99).Channels() != 0 || Mode(99).CoresPerChannel() != 0 {
		t.Error("invalid mode should report zero channels and cores")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("XX"); err == nil {
		t.Error("ParseMode should reject unknown strings")
	}
	if m, err := ParseMode("nf"); err != nil || m != NF {
		t.Error("ParseMode should accept lower case")
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{Name: "a", C: 1, T: 10, D: 10, Mode: NF, Channel: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []Task{
		{Name: "c0", C: 0, T: 10, D: 10, Mode: NF},
		{Name: "cneg", C: -1, T: 10, D: 10, Mode: NF},
		{Name: "t0", C: 1, T: 0, D: 10, Mode: NF},
		{Name: "d0", C: 1, T: 10, D: 0, Mode: NF},
		{Name: "dgtt", C: 1, T: 10, D: 11, Mode: NF},
		{Name: "cgtd", C: 6, T: 10, D: 5, Mode: NF},
		{Name: "badmode", C: 1, T: 10, D: 10, Mode: Mode(7)},
		{Name: "badch", C: 1, T: 10, D: 10, Mode: FT, Channel: 1},
		{Name: "negch", C: 1, T: 10, D: 10, Mode: NF, Channel: -1},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("task %q should be rejected", b.Name)
		}
	}
}

func TestNormalized(t *testing.T) {
	n := Task{C: 1, T: 10, Mode: NF}.Normalized()
	if n.D != 10 {
		t.Errorf("Normalized D = %g, want 10", n.D)
	}
	n = Task{C: 1, T: 10, D: 7, Mode: NF}.Normalized()
	if n.D != 7 {
		t.Errorf("Normalized should keep explicit D, got %g", n.D)
	}
}

func TestUtilization(t *testing.T) {
	if u := (Task{C: 1, T: 4}).Utilization(); u != 0.25 {
		t.Errorf("Utilization = %g, want 0.25", u)
	}
	if u := (Task{C: 1, T: 0}).Utilization(); !math.IsInf(u, 1) {
		t.Errorf("zero-period utilisation should be +Inf, got %g", u)
	}
}

func TestPaperTaskSet(t *testing.T) {
	s := PaperTaskSet()
	if len(s) != 13 {
		t.Fatalf("paper set has %d tasks, want 13", len(s))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("paper set invalid: %v", err)
	}
	// Mode populations: 5 NF, 4 FS, 4 FT.
	if n := len(s.ByMode(NF)); n != 5 {
		t.Errorf("NF tasks = %d, want 5", n)
	}
	if n := len(s.ByMode(FS)); n != 4 {
		t.Errorf("FS tasks = %d, want 4", n)
	}
	if n := len(s.ByMode(FT)); n != 4 {
		t.Errorf("FT tasks = %d, want 4", n)
	}
	// Table 2(a): required (max per-channel) utilisations.
	cases := []struct {
		m    Mode
		want float64
	}{
		{FT, 1.0/12 + 1.0/15 + 1.0/20 + 2.0/30}, // 0.2667
		{FS, 1.0/10 + 1.0/15 + 2.0/20},          // 0.2667 (> τ9's 0.25)
		{NF, 0.25},                              // τ5: 6/24
	}
	for _, c := range cases {
		if got := s.MaxChannelUtilization(c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MaxChannelUtilization(%s) = %.4f, want %.4f", c.m, got, c.want)
		}
	}
	// Paper partition shapes.
	nf := s.Channels(NF)
	wantNF := [][]string{{"tau1"}, {"tau2", "tau3"}, {"tau4"}, {"tau5"}}
	for i, names := range wantNF {
		if got := nf[i].Names(); len(got) != len(names) {
			t.Errorf("NF channel %d = %v, want %v", i, got, names)
			continue
		}
		for j, n := range names {
			if nf[i][j].Name != n {
				t.Errorf("NF channel %d task %d = %s, want %s", i, j, nf[i][j].Name, n)
			}
		}
	}
	fs := s.Channels(FS)
	if len(fs[0]) != 3 || len(fs[1]) != 1 || fs[1][0].Name != "tau9" {
		t.Errorf("FS partition wrong: %v / %v", fs[0].Names(), fs[1].Names())
	}
	// Hyperperiod of the paper set is 120.
	h, err := s.Hyperperiod(1)
	if err != nil || h != 120 {
		t.Errorf("Hyperperiod = %g, %v; want 120", h, err)
	}
}

func TestSetValidateDuplicateNames(t *testing.T) {
	s := Set{
		{Name: "x", C: 1, T: 10, D: 10, Mode: NF},
		{Name: "x", C: 1, T: 20, D: 20, Mode: NF},
	}
	if err := s.Validate(); err == nil {
		t.Error("duplicate names should be rejected")
	}
}

func TestSortedRM(t *testing.T) {
	s := Set{
		{Name: "slow", C: 1, T: 30, D: 30},
		{Name: "fast", C: 1, T: 5, D: 5},
		{Name: "mid", C: 1, T: 10, D: 10},
		{Name: "tie-b", C: 1, T: 10, D: 8},
	}
	got := s.SortedRM().Names()
	want := []string{"fast", "tie-b", "mid", "slow"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedRM = %v, want %v", got, want)
		}
	}
	// Original set must be untouched.
	if s[0].Name != "slow" {
		t.Error("SortedRM mutated its receiver")
	}
}

func TestSortedDM(t *testing.T) {
	s := Set{
		{Name: "a", C: 1, T: 30, D: 6},
		{Name: "b", C: 1, T: 5, D: 5},
		{Name: "c", C: 1, T: 10, D: 6},
	}
	got := s.SortedDM().Names()
	want := []string{"b", "c", "a"} // D=5, then D=6 ties broken by T (10 < 30)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedDM = %v, want %v", got, want)
		}
	}
}

func TestByChannelAndFind(t *testing.T) {
	s := PaperTaskSet()
	ch := s.ByChannel(NF, 1)
	if len(ch) != 2 || ch[0].Name != "tau2" || ch[1].Name != "tau3" {
		t.Errorf("ByChannel(NF,1) = %v", ch.Names())
	}
	if _, ok := s.Find("tau9"); !ok {
		t.Error("Find(tau9) failed")
	}
	if _, ok := s.Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestSetUtilizationAdditive(t *testing.T) {
	f := func(cs [4]uint8) bool {
		var s Set
		total := 0.0
		for _, c := range cs {
			ci := float64(c%50) + 1
			ti := ci * 4
			s = append(s, Task{C: ci, T: ti, D: ti, Mode: NF})
			total += ci / ti
		}
		return math.Abs(s.Utilization()-total) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelsPartitionInvariant(t *testing.T) {
	// Channels(m) over all modes must cover the set exactly once.
	s := PaperTaskSet()
	n := 0
	for _, m := range Modes() {
		for _, sub := range s.Channels(m) {
			n += len(sub)
		}
	}
	if n != len(s) {
		t.Errorf("channel split covers %d tasks, want %d", n, len(s))
	}
}

// TestChannelsAppendIsolated checks that the per-channel subsets,
// which share one backing, are capped: appending to one must not
// overwrite the next channel's tasks. Empty channels stay nil, and the
// subsets keep set order.
func TestChannelsAppendIsolated(t *testing.T) {
	s := PaperTaskSet()
	nf := s.Channels(NF)
	want := make([][]string, len(nf))
	for ch, sub := range nf {
		want[ch] = sub.Names()
		if cap(sub) != len(sub) {
			t.Errorf("NF channel %d: cap %d, want its length %d", ch, cap(sub), len(sub))
		}
	}
	for ch := range nf {
		nf[ch] = append(nf[ch], Task{Name: "guest", C: 1, T: 100, D: 100, Mode: NF, Channel: ch})
		for other, sub := range nf {
			if other == ch {
				continue
			}
			names := sub.Names()
			if other < ch {
				names = names[:len(names)-1] // its own guest
			}
			if len(names) != len(want[other]) {
				t.Fatalf("appending to NF channel %d changed channel %d to %v, want %v", ch, other, names, want[other])
			}
			for i := range names {
				if names[i] != want[other][i] {
					t.Fatalf("appending to NF channel %d changed channel %d to %v, want %v", ch, other, names, want[other])
				}
			}
		}
	}

	sparse := Set{
		{Name: "b", C: 1, T: 10, D: 10, Mode: NF, Channel: 2},
		{Name: "f", C: 1, T: 10, D: 10, Mode: FT},
		{Name: "a", C: 1, T: 10, D: 10, Mode: NF, Channel: 2},
	}
	got := sparse.Channels(NF)
	if got[0] != nil || got[1] != nil || got[3] != nil {
		t.Errorf("empty channels must be nil: %v", got)
	}
	if names := got[2].Names(); len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("NF channel 2 = %v, want [b a] in set order", names)
	}
	if got := (Set{}).Channels(FS); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Errorf("an empty set must split into nil channels, got %v", got)
	}
}

func TestHyperperiodEmpty(t *testing.T) {
	if _, err := (Set{}).Hyperperiod(1); err == nil {
		t.Error("empty set hyperperiod should error")
	}
}

// TestHyperperiodFigures pins the exact fold of scaled periods: integer
// and fractional periods, and the periods and denominators it rejects.
func TestHyperperiodFigures(t *testing.T) {
	set := func(periods ...float64) Set {
		s := make(Set, len(periods))
		for i, p := range periods {
			s[i] = Task{C: 0.1, T: p}
		}
		return s
	}
	for _, c := range []struct {
		s    Set
		den  int64
		want float64
	}{
		{set(6, 8, 12), 1, 24},
		{set(0.5, 0.75), 4, 1.5},
	} {
		if h, err := c.s.Hyperperiod(c.den); err != nil || h != c.want {
			t.Errorf("Hyperperiod(%d) of periods %v = %g, %v; want %g", c.den, c.s, h, err, c.want)
		}
	}
	for _, c := range []struct {
		s   Set
		den int64
		why string
	}{
		{set(math.Pi), 1000, "an irrational period"},
		{set(-2), 1, "a negative period"},
		{set(2), 0, "a zero denominator"},
	} {
		if h, err := c.s.Hyperperiod(c.den); err == nil {
			t.Errorf("Hyperperiod with %s = %g, want an error", c.why, h)
		}
	}
}

func TestHyperperiodOverflowIsAnError(t *testing.T) {
	// Three valid periods whose scaled LCM, 7000001·5000003·3000007,
	// exceeds int64; and one period whose scaled value alone does.
	for _, s := range []Set{
		{{Name: "a", C: 1, T: 7.000001}, {Name: "b", C: 1, T: 5.000003}, {Name: "c", C: 1, T: 3.000007}},
		{{Name: "huge", C: 1, T: 1e300}},
	} {
		if err := s.Normalized().Validate(); err != nil {
			t.Fatal(err)
		}
		if h, err := s.Hyperperiod(1_000_000); err == nil {
			t.Errorf("Hyperperiod = %g, want an overflow error", h)
		}
	}
}
