// Command benchgate compares `go test -bench` output against a
// committed baseline and fails on regression, turning the CI
// benchmark smoke into a tracked-threshold perf gate.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkOptimize -benchmem -benchtime=3x . \
//	    | go run ./cmd/benchgate -baseline BENCH_BASELINE.json [-tolerance 2.5]
//
//	go test -run=NONE -bench=BenchmarkOptimize -benchmem -benchtime=3x . \
//	    | go run ./cmd/benchgate -baseline BENCH_BASELINE.json -update
//
// The baseline maps benchmark names (GOMAXPROCS suffix stripped) to
// ns/op and, for runs with -benchmem, to allocs/op. A measured
// benchmark fails the gate when it is slower than baseline ×
// tolerance, or when it allocates more than baseline × 1.1 times per
// operation; benchmarks absent from the baseline are reported but do
// not fail (add them with -update). Absolute ns/op are
// hardware-dependent, so the time tolerance is deliberately generous:
// it catches gross regressions (an accidentally quadratic search, a
// lost fast path), not percent-level drift. Allocation counts do not
// depend on the hardware, so their tolerance is tight. The baseline
// records the CPU model and GOMAXPROCS of the run that produced it;
// refresh it on the reference machine with `make bench-baseline`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// allocTolerance bounds allocs/op against the baseline.
const allocTolerance = 1.1

// Baseline is the committed file format.
type Baseline struct {
	// Note documents provenance (machine, date, command).
	Note string `json:"note,omitempty"`
	// CPU is the processor model `go test` reported for the run.
	CPU string `json:"cpu,omitempty"`
	// GOMAXPROCS is the parallelism the benchmarks ran at.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// NsPerOp maps benchmark name → nanoseconds per operation.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name → allocations per operation.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkOptimize/parallel=1-8   3   12345678 ns/op   ...   4567 allocs/op
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op`)
	allocsPart = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline file")
		tolerance    = flag.Float64("tolerance", 2.5, "fail when measured ns/op > baseline × tolerance")
		update       = flag.Bool("update", false, "write the measured values as the new baseline")
		note         = flag.String("note", "", "provenance note stored with -update")
	)
	flag.Parse()

	run, order, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}

	if *update {
		run.Note = *note
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			fatalf("encoding baseline: %v", err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatalf("writing %s: %v", *baselinePath, err)
		}
		fmt.Printf("\nbenchgate: wrote %d entries to %s\n", len(run.NsPerOp), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("reading baseline %s: %v (generate it with -update)", *baselinePath, err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("parsing %s: %v", *baselinePath, err)
	}

	failed := compare(os.Stdout, base, run, order, *tolerance)
	if failed > 0 {
		fatalf("%d measurement(s) regressed beyond the baseline's tolerance", failed)
	}
	fmt.Println("benchgate: no regressions")
}

// parse reads `go test -bench` output, copying it to w, and returns
// the measurements in the baseline format plus the benchmark names in
// the order they first appeared.
func parse(r io.Reader, w io.Writer) (Baseline, []string, error) {
	run := Baseline{NsPerOp: map[string]float64{}, AllocsPerOp: map[string]float64{}, GOMAXPROCS: 1}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		if procs, err := strconv.Atoi(m[2]); err == nil {
			run.GOMAXPROCS = procs
		}
		if _, seen := run.NsPerOp[m[1]]; !seen {
			order = append(order, m[1])
		}
		run.NsPerOp[m[1]] = ns
		if a := allocsPart.FindStringSubmatch(line); a != nil {
			if allocs, err := strconv.ParseFloat(a[1], 64); err == nil {
				run.AllocsPerOp[m[1]] = allocs
			}
		}
	}
	if err := sc.Err(); err != nil {
		return run, nil, fmt.Errorf("reading bench output: %v", err)
	}
	if len(run.NsPerOp) == 0 {
		return run, nil, fmt.Errorf("no benchmark results on stdin (did -bench match anything?)")
	}
	return run, order, nil
}

// compare reports each measured benchmark against the baseline on w
// and returns the number of measurements beyond their tolerance.
func compare(w io.Writer, base, run Baseline, order []string, tolerance float64) int {
	fmt.Fprintf(w, "\nbenchgate: tolerance %.2f× ns/op, %.2f× allocs/op\n", tolerance, allocTolerance)
	if base.CPU != "" && (base.CPU != run.CPU || base.GOMAXPROCS != run.GOMAXPROCS) {
		fmt.Fprintf(w, "  note: baseline taken on %q at GOMAXPROCS=%d, this run on %q at GOMAXPROCS=%d\n",
			base.CPU, base.GOMAXPROCS, run.CPU, run.GOMAXPROCS)
	}
	failed := 0
	for _, name := range order {
		got := run.NsPerOp[name]
		ref, ok := base.NsPerOp[name]
		if !ok {
			fmt.Fprintf(w, "  NEW   %-50s %12.0f ns/op (not in baseline)\n", name, got)
			continue
		}
		status := "ok"
		if got > ref*tolerance {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "  %-5s %-50s %12.0f ns/op  (baseline %.0f, %.2f×)\n", status, name, got, ref, got/ref)
		gotA, measured := run.AllocsPerOp[name]
		refA, known := base.AllocsPerOp[name]
		if !measured || !known {
			continue
		}
		status = "ok"
		if gotA > refA*allocTolerance {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "  %-5s %-50s %12.0f allocs/op  (baseline %.0f)\n", status, name, gotA, refA)
	}
	var missing []string
	for name := range base.NsPerOp {
		if _, ok := run.NsPerOp[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "  GONE  %-50s (in baseline, not measured)\n", name)
	}
	return failed
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
