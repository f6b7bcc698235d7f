package opt_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	. "mdq/internal/opt"
	"mdq/internal/simweb"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/search_golden.json from the current optimizer")

const goldenPath = "testdata/search_golden.json"

// goldenCase is one conf ⋈ flight ⋈ hotel search of the travel-cold
// mix: a metric × cache-mode pair, a price predicate shape 0–3 and a
// K in 1–40.
type goldenCase struct {
	Name   string `json:"name"`
	Query  string `json:"query"`
	Metric string `json:"metric"`
	Cache  string `json:"cache"`
	K      int    `json:"k"`
}

// goldenPlan is a plan reduced to what the search decided: its
// signature, its cost as raw float bits, and its feasibility.
type goldenPlan struct {
	Sig      string `json:"sig"`
	CostBits uint64 `json:"cost_bits"`
	Feasible bool   `json:"feasible"`
}

// goldenResult is the recorded outcome of one case: the sequential
// search with three alternatives and its effort counters, and the
// best plan of the four-worker search.
type goldenResult struct {
	goldenCase
	Best         goldenPlan   `json:"best"`
	Alternatives []goldenPlan `json:"alternatives"`
	Stats        Stats        `json:"stats"`
	Parallel     goldenPlan   `json:"parallel4"`
}

// goldenCases mirrors the first three blocks of the travel-cold
// workload classes: every metric × cache pair once per block, with K,
// predicate shape, selectivity annotation, topic and hotel category
// rotating from block to block.
func goldenCases() []goldenCase {
	metrics := []string{"etm", "rr", "sum", "bottleneck", "tts"}
	caches := []string{"one-call", "none", "optimal"}
	cats := []string{"luxury", "standard", "budget", "hostel"}
	sels := []string{"0.05", "0.1", "0.2", "0.5"}
	topics := []string{"'DB'", "'AI'", "'DB'", "'SE'"}
	var out []goldenCase
	for b := 0; b < 3; b++ {
		for c := 0; c < len(metrics)*len(caches); c++ {
			k := 1 + (7*b+11*c)%40
			shape := (b + c) % 4
			sel := sels[(3*b+c)%4]
			constant := 13*b + 7*c
			text := fmt.Sprintf("q(Conf, FPrice, Hotel) :- conf(%s, Conf, Start, End, City), flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, '%s', Start, End, HPrice)",
				topics[(b+2*c)%4], cats[(2*b+c)%4])
			switch shape {
			case 1:
				text += fmt.Sprintf(", FPrice + HPrice < %d {%s}", 300+10*(constant%120), sel)
			case 2:
				text += fmt.Sprintf(", HPrice <= %d {%s}", 60+10*(constant%60), sel)
			case 3:
				text += fmt.Sprintf(", FPrice < %d", 100+10*(constant%60))
			}
			m, cm := metrics[c/len(caches)], caches[c%len(caches)]
			out = append(out, goldenCase{
				Name:   fmt.Sprintf("b%d/%s/%s/shape%d/k%d", b, m, cm, shape, k),
				Query:  text + ".",
				Metric: m,
				Cache:  cm,
				K:      k,
			})
		}
	}
	return out
}

func reducePlan(s Scored) goldenPlan {
	return goldenPlan{Sig: s.Plan.Signature(), CostBits: math.Float64bits(s.Cost), Feasible: s.Feasible}
}

// runGolden runs one case at the given parallelism and alternatives
// setting.
func runGolden(t *testing.T, w *simweb.TravelWorld, c goldenCase, par, keepAlt int) *Result {
	t.Helper()
	q, err := cq.Parse(c.Query)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(w.Schema); err != nil {
		t.Fatal(err)
	}
	metric, ok := cost.ByName(c.Metric)
	if !ok {
		t.Fatalf("unknown metric %q", c.Metric)
	}
	mode, ok := card.ModeByName(c.Cache)
	if !ok {
		t.Fatalf("unknown cache mode %q", c.Cache)
	}
	o := &Optimizer{Metric: metric, Estimator: card.Config{Mode: mode}, K: c.K,
		ChooseMethod: w.Registry.MethodChooser(), Parallelism: par, KeepAlternatives: keepAlt}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return res
}

// TestSearchGolden pins the full search on the travel-cold query mix
// bit for bit: the best plan's signature, the raw bits of its cost,
// its feasibility, the three retained alternatives and the effort
// counters of the sequential search, plus the best plan and cost of a
// four-worker search (whose effort counters may vary with worker
// timing). Regenerate the file with -update-golden only from an
// optimizer whose results are known good.
func TestSearchGolden(t *testing.T) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	var got []goldenResult
	for _, c := range goldenCases() {
		seq := runGolden(t, w, c, 1, 3)
		par := runGolden(t, w, c, 4, 0)
		r := goldenResult{
			goldenCase: c,
			Best:       reducePlan(Scored{Plan: seq.Best, Cost: seq.Cost, Feasible: seq.Feasible}),
			Stats:      seq.Stats,
			Parallel:   reducePlan(Scored{Plan: par.Best, Cost: par.Cost, Feasible: par.Feasible}),
		}
		for _, a := range seq.Alternatives {
			r.Alternatives = append(r.Alternatives, reducePlan(a))
		}
		got = append(got, r)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.goldenCase != w.goldenCase {
			t.Fatalf("case %d is %+v, golden file has %+v", i, g.goldenCase, w.goldenCase)
		}
		if g.Best != w.Best {
			t.Errorf("%s: best %+v, want %+v", g.Name, g.Best, w.Best)
		}
		if g.Stats != w.Stats {
			t.Errorf("%s: stats %+v, want %+v", g.Name, g.Stats, w.Stats)
		}
		if len(g.Alternatives) != len(w.Alternatives) {
			t.Errorf("%s: %d alternatives, want %d", g.Name, len(g.Alternatives), len(w.Alternatives))
		} else {
			for j := range g.Alternatives {
				if g.Alternatives[j] != w.Alternatives[j] {
					t.Errorf("%s: alternative %d is %+v, want %+v", g.Name, j, g.Alternatives[j], w.Alternatives[j])
				}
			}
		}
		if g.Parallel != w.Parallel {
			t.Errorf("%s: four-worker best %+v, want %+v", g.Name, g.Parallel, w.Parallel)
		}
	}
}
