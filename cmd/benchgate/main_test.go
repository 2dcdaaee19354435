package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func mustParse(t *testing.T, out string) map[string]measurement {
	t.Helper()
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchStripsProcsSuffix(t *testing.T) {
	got := mustParse(t, `goos: linux
BenchmarkPlain-8                 	     100	      1234 ns/op	      56 B/op	       7 allocs/op
BenchmarkSolo                    	     100	      2000 ns/op	       3 allocs/op
BenchmarkSub/shed=4-2            	     100	      3000 ns/op	       1.00 patches/op	     112 allocs/op
BenchmarkSub/shed=1              	     100	      4000 ns/op	      94 allocs/op
BenchmarkSub/contended-1-channel 	     100	      5000 ns/op	       0 allocs/op
BenchmarkTimeOnly-4              	     100	      6000 ns/op
PASS
`)
	want := map[string]measurement{
		"BenchmarkPlain":                   {NsPerOp: 1234, AllocsPerOp: 7},
		"BenchmarkSolo":                    {NsPerOp: 2000, AllocsPerOp: 3},
		"BenchmarkSub/shed=4":              {NsPerOp: 3000, AllocsPerOp: 112},
		"BenchmarkSub/shed=1":              {NsPerOp: 4000, AllocsPerOp: 94},
		"BenchmarkSub/contended-1-channel": {NsPerOp: 5000, AllocsPerOp: 0},
		"BenchmarkTimeOnly":                {NsPerOp: 6000, AllocsPerOp: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestParseBenchKeepsMinimumOfRuns(t *testing.T) {
	got := mustParse(t, `BenchmarkX-2  100  900 ns/op  12 allocs/op
BenchmarkX-2  100  700 ns/op  14 allocs/op
BenchmarkX-2  100  800 ns/op  11 allocs/op
`)
	// The two minima come from different runs; each is kept on its own.
	if w := (measurement{NsPerOp: 700, AllocsPerOp: 11}); got["BenchmarkX"] != w {
		t.Errorf("got %+v, want %+v", got["BenchmarkX"], w)
	}
}

func TestCompareReportsMissingBenchmark(t *testing.T) {
	base := map[string]measurement{"BenchmarkA": {100, 1}, "BenchmarkB": {100, 1}}
	got := map[string]measurement{"BenchmarkA": {100, 1}, "BenchmarkNew": {50, 0}}
	failures, notes := compare(base, got, 0.2)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB: in baseline but not measured") {
		t.Errorf("failures = %q, want one for the missing BenchmarkB", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkNew: not in baseline") {
		t.Errorf("notes = %q, want one for the unbaselined BenchmarkNew", notes)
	}
}

func TestCompareTolerancesAndZeroAllocRule(t *testing.T) {
	base := map[string]measurement{
		"BenchmarkZero":   {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkAllocs": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkSlow":   {NsPerOp: 100, AllocsPerOp: 10},
	}
	cases := []struct {
		name string
		got  measurement
		fail bool
	}{
		{"BenchmarkZero", measurement{NsPerOp: 100, AllocsPerOp: 0}, false},
		{"BenchmarkZero", measurement{NsPerOp: 100, AllocsPerOp: 1}, true}, // any alloc on a zero-alloc path
		{"BenchmarkAllocs", measurement{NsPerOp: 100, AllocsPerOp: 12}, false},
		{"BenchmarkAllocs", measurement{NsPerOp: 100, AllocsPerOp: 13}, true},
		{"BenchmarkSlow", measurement{NsPerOp: 119, AllocsPerOp: 10}, false},
		{"BenchmarkSlow", measurement{NsPerOp: 121, AllocsPerOp: 10}, true},
	}
	for _, c := range cases {
		got := map[string]measurement{}
		for name, m := range base {
			got[name] = m
		}
		got[c.name] = c.got
		failures, _ := compare(base, got, 0.2)
		if fail := len(failures) > 0; fail != c.fail {
			t.Errorf("%s at %+v: failures %q, want failing = %v", c.name, c.got, failures, c.fail)
		}
	}
}

// gateRuns mirror the CI perf gate: the benchmarks it runs, per
// package, before feeding the output to benchgate.
var gateRuns = []struct{ pkg, bench string }{
	{"repro", "AdmitRemoveChurn|AutoPartition|BatchAdmission|ShardedChurn|ScenarioReplay|SimulateHyperperiod|SimulateWithFaults|Table2MaxPeriod|Table2MaxSlack"},
	{"repro/internal/online", "PartialAdmission|RevokeRestore"},
}

// TestBaselineKeysIndependentOfProcs runs the gated benchmarks once at
// GOMAXPROCS 1 and once at 2 and checks that the measured keys cover
// the checked-in baseline both times. parseBench strips a trailing
// "-N" as the GOMAXPROCS suffix, which go test leaves off at
// GOMAXPROCS=1, so a sub-benchmark name that itself ends in "-N" keys
// differently on one-CPU and multi-CPU hosts and the gate misses it on
// one of them.
func TestBaselineKeysIndependentOfProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the gated benchmarks")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []string{"1", "2"} {
		var out bytes.Buffer
		for _, r := range gateRuns {
			cmd := exec.Command(goTool, "test", "-run", "^$", "-bench", r.bench, "-benchtime", "1x", "-cpu", procs, r.pkg)
			b, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go test -bench %s %s: %v\n%s", r.bench, r.pkg, err, b)
			}
			out.Write(b)
		}
		got := mustParse(t, out.String())
		for name := range base.Benchmarks {
			if _, ok := got[name]; !ok {
				t.Errorf("GOMAXPROCS=%s: baseline key %s is not measured", procs, name)
			}
		}
	}
}
