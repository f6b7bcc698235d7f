package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mdq/internal/trace"
)

// listBytes encodes a workload's request list: the warm-up requests,
// then the first n requests of the timed sequence, one JSON body per
// line.
func listBytes(w *Workload, n int) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range w.Warmup {
		enc.Encode(r)
	}
	for _, i := range w.Seq[:min(n, len(w.Seq))] {
		enc.Encode(w.Distinct[i])
	}
	return b.Bytes()
}

// TestRequestListIsSeeded: the same seed gives a byte-identical request
// list, another seed a different one.
func TestRequestListIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if !bytes.Equal(listBytes(a, 5000), listBytes(b, 5000)) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if bytes.Equal(listBytes(a, 5000), listBytes(c, 5000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
}

// TestColdKeysAreDistinct checks, with the server's own template key,
// that no two travel-cold requests (warm-up included) share a
// plan-cache entry.
func TestColdKeysAreDistinct(t *testing.T) {
	wl, err := generate("travel-cold", 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(wl.World)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, r := range append(append([]Request(nil), wl.Distinct...), wl.Warmup...) {
		q, err := bindRequest(r, w.schema)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s|%s|%s|%d", q.TemplateKey(), r.Metric, r.Cache, r.K)
		if j, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share the plan-cache key %s", j, i, key)
		}
		seen[key] = i
	}
}

func TestPercentile(t *testing.T) {
	if got := regIncBeta(0.5, 2, 3); math.Abs(got-0.6875) > 1e-12 {
		t.Errorf("I_0.5(2, 3) = %v, want 0.6875", got)
	}
	if got := regIncBeta(0.3, 1, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("I_0.3(1, 1) = %v, want 0.3", got)
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		// Symmetric weights put the median of 1..5 at 3.
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		// Weights Beta(2, 2) CDF at 1/3, 2/3, 1: 7/27, 20/27 − 7/27, 7/27.
		{[]float64{0, 0, 27}, 50, 7},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// On a large sample it agrees with the order statistic: the 90th
	// percentile of 0..9999 is about 8999.
	big := make([]float64, 10000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 90); math.Abs(got-8999.1) > 1 {
		t.Errorf("percentile(0..9999, 90) = %v, want about 8999", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "root", Start: 0, Dur: 100},
		// Overlapping children count once; the one past the parent's
		// end counts only inside it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 90, Dur: 30},
		{ID: 5, Parent: 3, Name: "d", Start: 25, Dur: 5},
		// A cumulative span covers nothing of its parent.
		{ID: 6, Parent: 1, Name: "e", Start: 60, Dur: 500, Attrs: map[string]string{"cumulative": "true"}},
	}
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 25, 4: 30, 5: 5, 6: 500}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	wl, err := generate("zipf-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(wl.World)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(wl, w)
	if err != nil {
		t.Fatal(err)
	}
	// Request 0: tag-00, Score >= 4, K = 5.
	set := ref.sets[0]
	var answers [][]string
	for _, tup := range set.base.tuples {
		row := []string{render(tup[set.head[0]]), render(tup[set.head[1]])}
		if row[1] >= "4" && len(answers) <= set.k {
			answers = append(answers, row)
		}
	}
	if len(answers) <= set.k {
		t.Fatalf("reference has %d answers, want more than k=%d", len(answers), set.k)
	}
	good := answers[:3]
	if err := set.check(good); err != nil {
		t.Fatalf("true answers rejected: %v", err)
	}
	doctored := func(f func(rows [][]string) [][]string) [][]string {
		rows := make([][]string, len(good))
		for i, r := range good {
			rows[i] = append([]string(nil), r...)
		}
		return f(rows)
	}
	bad := map[string][][]string{
		"wrong score":  doctored(func(r [][]string) [][]string { r[1][1] = "1"; return r }),
		"unknown item": doctored(func(r [][]string) [][]string { r[0][0] = "item-99-0000"; return r }),
		"repeated row": doctored(func(r [][]string) [][]string { return append(r, r[0]) }),
		"short row":    doctored(func(r [][]string) [][]string { r[2] = r[2][:1]; return r }),
		"over k":       answers,
	}
	for name, rows := range bad {
		if err := set.check(rows); err == nil {
			t.Errorf("%s: doctored response accepted", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program gates on %v", names, benchmarked)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.name)
		}
	}
}
