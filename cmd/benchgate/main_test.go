package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mdq
cpu: Intel(R) Xeon(R) Processor
BenchmarkOptimize/parallel=1-2         	       3	4600000000 ns/op	1000000000 B/op	 20000000 allocs/op
BenchmarkFetchAssign-2                 	    1334	    879706 ns/op	      9091 vectors/op	   14417 B/op	     115 allocs/op
BenchmarkOptimizePlanCache-2           	   50000	     23077 ns/op
PASS
`

func TestParseReadsTimeAllocsAndMachine(t *testing.T) {
	run, order, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if run.CPU != "Intel(R) Xeon(R) Processor" || run.GOMAXPROCS != 2 {
		t.Fatalf("machine = %q at GOMAXPROCS=%d", run.CPU, run.GOMAXPROCS)
	}
	if len(order) != 3 || order[1] != "BenchmarkFetchAssign" {
		t.Fatalf("order = %v", order)
	}
	if run.NsPerOp["BenchmarkFetchAssign"] != 879706 || run.AllocsPerOp["BenchmarkFetchAssign"] != 115 {
		t.Fatalf("FetchAssign = %g ns/op, %g allocs/op", run.NsPerOp["BenchmarkFetchAssign"], run.AllocsPerOp["BenchmarkFetchAssign"])
	}
	if _, ok := run.AllocsPerOp["BenchmarkOptimizePlanCache"]; ok {
		t.Fatal("allocs/op recorded for a run without -benchmem")
	}
}

func TestCompareGatesAllocsTightlyAndTimeLoosely(t *testing.T) {
	run, order, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkOptimize/parallel=1": 2e9, "BenchmarkFetchAssign": 879706},
		AllocsPerOp: map[string]float64{"BenchmarkOptimize/parallel=1": 2e7, "BenchmarkFetchAssign": 115},
	}
	// 2.3× slower is within the 2.5× time tolerance.
	if failed := compare(io.Discard, base, run, order, 2.5); failed != 0 {
		t.Fatalf("%d failures, want 0", failed)
	}
	// 115 allocs/op against a baseline of 104 exceeds 1.1×.
	base.AllocsPerOp["BenchmarkFetchAssign"] = 104
	if failed := compare(io.Discard, base, run, order, 2.5); failed != 1 {
		t.Fatalf("%d failures, want 1 (allocs)", failed)
	}
	// And a tighter time tolerance fails the optimizer benchmark too.
	if failed := compare(io.Discard, base, run, order, 2); failed != 2 {
		t.Fatalf("%d failures, want 2 (allocs and time)", failed)
	}
}
