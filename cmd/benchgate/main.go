// Command benchgate is the CI perf regression gate: it parses `go test
// -bench` output, reduces each benchmark to its best (minimum) run —
// min-of-N is robust against scheduler noise, which only ever slows a
// run down — and compares ns/op and allocs/op against a checked-in
// baseline, failing on regressions beyond the tolerance.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchtime 100x -count 5 . | tee bench.out
//	go run ./cmd/benchgate -baseline BENCH_baseline.json bench.out
//
// With -update the measured results overwrite the baseline instead of
// being checked — run it on the reference machine when a PR
// deliberately shifts performance:
//
//	go run ./cmd/benchgate -baseline BENCH_baseline.json -update bench.out
//
// Rules:
//   - ns/op: fail when measured > baseline × (1 + tol). Wall time is
//     machine-dependent, so the tolerance (default 20%) absorbs host
//     variation; the baseline should come from the CI class of machine.
//   - allocs/op: fail when measured > baseline × (1 + tol), and any
//     increase from a zero baseline fails — allocation counts are
//     deterministic, and zero-alloc paths are the ones this repo's
//     hot-path work guarantees. A gated benchmark whose output carries
//     no allocs/op column (no b.ReportAllocs, no -benchmem) fails too,
//     since an absent count would otherwise read as zero, and -update
//     refuses such input.
//   - a baseline benchmark missing from the input fails (the gate must
//     not silently narrow); a new benchmark not in the baseline is
//     reported as a hint to refresh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// measurement is one benchmark's reduced result.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// allocsNotReported is the AllocsPerOp parseBench records for a
// benchmark with a result line that carries no allocs/op column. It is
// below every count, so it survives the reduction to the minimum.
const allocsNotReported = -1

// baseline is the checked-in reference file.
type baseline struct {
	// Benchtime and Count document how the numbers were produced.
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	// Benchmarks maps the full benchmark name (sub-benchmarks included,
	// CPU suffix stripped) to its reference result.
	Benchmarks map[string]measurement `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		update       = flag.Bool("update", false, "write the measured results to the baseline instead of checking")
		tol          = flag.Float64("tol", 0.20, "allowed fractional regression in ns/op and allocs/op")
		benchtime    = flag.String("benchtime", "100x", "recorded in the baseline on -update (documentation only)")
		count        = flag.Int("count", 5, "recorded in the baseline on -update (documentation only)")
	)
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(got) == 0 {
		log.Fatal("no benchmark results in input")
	}

	if *update {
		if err := checkAllocsReported(got); err != nil {
			log.Fatal(err)
		}
		b := baseline{Benchtime: *benchtime, Count: *count, Benchmarks: got}
		var buf strings.Builder
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baselinePath, []byte(buf.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatalf("%v (run with -update to create the baseline)", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("parsing %s: %v", *baselinePath, err)
	}

	failures, notes := compare(base.Benchmarks, got, *tol)
	for _, n := range notes {
		fmt.Println("benchgate: note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("benchgate: FAIL:", f)
		}
		log.Fatalf("%d regression(s) beyond %.0f%% tolerance (refresh %s with -update if intended)",
			len(failures), *tol*100, *baselinePath)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), *tol*100)
}

// compare checks measured results against the baseline. Both maps key
// by benchmark name.
func compare(base, got map[string]measurement, tol float64) (failures, notes []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", name))
			continue
		}
		if g.NsPerOp > b.NsPerOp*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%)",
				name, g.NsPerOp, b.NsPerOp, 100*(g.NsPerOp/b.NsPerOp-1)))
		}
		switch {
		case g.AllocsPerOp == allocsNotReported:
			failures = append(failures, fmt.Sprintf("%s: allocs/op not reported (call b.ReportAllocs or run with -benchmem)", name))
		case b.AllocsPerOp == 0 && g.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs zero-alloc baseline", name, g.AllocsPerOp))
		case float64(g.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol):
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (%+.1f%%)",
				name, g.AllocsPerOp, b.AllocsPerOp, 100*(float64(g.AllocsPerOp)/float64(b.AllocsPerOp)-1)))
		}
		if b.NsPerOp > 0 && g.NsPerOp < b.NsPerOp*(1-tol) {
			notes = append(notes, fmt.Sprintf("%s: %.0f ns/op is %.1f%% below baseline — consider refreshing",
				name, g.NsPerOp, 100*(1-g.NsPerOp/b.NsPerOp)))
		}
	}
	for name := range got {
		if _, ok := base[name]; !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline — refresh with -update to start gating it", name))
		}
	}
	sort.Strings(notes)
	return failures, notes
}

// checkAllocsReported fails when some benchmark's output carries no
// allocs/op column: a baseline written from it would gate nothing.
func checkAllocsReported(got map[string]measurement) error {
	var missing []string
	for name, m := range got {
		if m.AllocsPerOp == allocsNotReported {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("allocs/op not reported for %s (call b.ReportAllocs or run with -benchmem)", strings.Join(missing, ", "))
	}
	return nil
}

// parseBench reads `go test -bench` output and reduces repeated runs
// (-count=N) of each benchmark to the minimum ns/op and allocs/op. A
// result line without an allocs/op column records allocsNotReported.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// BenchmarkName-8  100  1234 ns/op  [custom metrics...]  56 B/op  7 allocs/op
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		var m measurement
		var haveNs, haveAllocs bool
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, haveNs = v, true
			case "allocs/op":
				m.AllocsPerOp, haveAllocs = int64(v), true
			}
		}
		if !haveNs {
			continue
		}
		if !haveAllocs {
			m.AllocsPerOp = allocsNotReported
		}
		if prev, ok := out[name]; ok && seen[name] {
			if m.NsPerOp < prev.NsPerOp {
				prev.NsPerOp = m.NsPerOp
			}
			if m.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = m.AllocsPerOp
			}
			out[name] = prev
			continue
		}
		out[name] = m
		seen[name] = true
	}
	return out, sc.Err()
}
