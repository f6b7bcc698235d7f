package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mdq/internal/simweb"
)

// Request is one POST /query body, exactly as the clients send it.
type Request struct {
	Template string            `json:"template"`
	Bindings map[string]string `json:"bindings,omitempty"`
	Metric   string            `json:"metric,omitempty"`
	Cache    string            `json:"cache,omitempty"`
	K        int               `json:"k"`
}

// Workload is a seeded traffic mix: the distinct requests it can send,
// the order the clients draw them in, and the requests that warm the
// servers before the timed window.
type Workload struct {
	Name string
	// World is the built-in world every server process serves.
	World string
	// Workers is the number of mdqworker processes behind the
	// coordinator (0: one single-process mdqserve).
	Workers int
	// Distinct holds every request the workload can send; Seq indexes
	// into it in sending order.
	Distinct []Request
	Seq      []int32
	// Warmup is sent before the timed window, once per client slot.
	Warmup []Request
	// KeyVars are head variables that together identify an answer
	// tuple; every template's head contains them.
	KeyVars []string
	// NoFeedback runs the servers with -feedback=false (see travelCold).
	NoFeedback bool
}

// workloadNames lists the workloads the program can run.
var workloadNames = []string{"travel-cold", "zipf-hot", "travel-fleet"}

// benchmarked lists, in BENCHMARK.json order, the workloads the
// benchmark gates on. travel-fleet is left out: at its default settings
// most of its requests fail (a coordinator rejects plans its workers
// priced with statistics their own execution feedback refreshed, which
// the coordinator never sees), so its figures measure which requests
// happen to fail and are not steady. It stays runnable by hand.
var benchmarked = workloadNames[:2]

// generate builds the named workload from the seed.
func generate(name string, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "travel-cold":
		return travelCold(rng), nil
	case "zipf-hot":
		return zipfHot(rng), nil
	case "travel-fleet":
		return travelFleet(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// hotSeqLen bounds the timed sequence of the hot workloads: far more
// requests than a run can send at any plausible speed.
const hotSeqLen = 1 << 20

var (
	travelMetrics = []string{"etm", "rr", "sum", "bottleneck", "tts"}
	travelCaches  = []string{"one-call", "none", "optimal"}
	travelCats    = []string{"luxury", "standard", "budget", "hostel"}
	travelKeyVars = []string{"Conf", "FPrice", "Hotel"}
	travelExtras  = []string{"City", "Start", "End", "HPrice", "OT", "RT"}
)

// travelText renders a conf ⋈ flight ⋈ hotel template.
func travelText(head []string, topic, pred string) string {
	text := fmt.Sprintf("q(%s) :- conf(%s, Conf, Start, End, City), flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, $cat, Start, End, HPrice)",
		strings.Join(head, ", "), topic)
	if pred != "" {
		text += ", " + pred
	}
	return text + "."
}

// travelPred renders price predicate shape 0–3 (0: none) with constant
// step c and the given selectivity annotation. The plan cache masks
// constants, so only the shape and annotation tell templates apart.
func travelPred(shape, c int, sel string) (text, key string) {
	switch shape {
	case 1:
		return fmt.Sprintf("FPrice + HPrice < %d {%s}", 300+10*(c%120), sel), "sum<" + sel
	case 2:
		return fmt.Sprintf("HPrice <= %d {%s}", 60+10*(c%60), sel), "hotel<=" + sel
	case 3:
		return fmt.Sprintf("FPrice < %d", 100+10*(c%60)), "flight<"
	}
	return "", ""
}

// travelHead is the key variables plus a random subset of the others,
// in random order.
func travelHead(rng *rand.Rand) []string {
	head := append([]string(nil), travelKeyVars...)
	for _, v := range travelExtras {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	return head
}

// coldLen is the number of distinct travel-cold requests: more than a
// run can send, and more than the 128-entry plan cache holds.
const coldLen = 2048

// coldClass is a travel-cold request but for its head: everything that
// decides how much work the server does for it.
type coldClass struct {
	metric, cache string
	k, shape      int
	sel           string
	constant      int
	topic, cat    string
}

// coldBlock returns block b of the cost classes: every metric × cache
// pair once, with K spread over 1–40, and predicate shapes, topics,
// hotel categories and constants rotating from block to block. The
// classes do not depend on the seed, nor does their order: a run covers
// only four or five blocks of classes whose searches differ fivefold in
// cost, so any seeded choice among them would change a run's cost mix.
// Fixing them gives every run the same mix, so runs compare; the seed
// draws each request's head (the projected columns and their order).
func coldBlock(b int) []coldClass {
	sels := []string{"0.05", "0.1", "0.2", "0.5"}
	topics := []string{"'DB'", "'AI'", "'DB'", "'SE'"}
	var out []coldClass
	for c := 0; c < len(travelMetrics)*len(travelCaches); c++ {
		out = append(out, coldClass{
			metric:   travelMetrics[c/len(travelCaches)],
			cache:    travelCaches[c%len(travelCaches)],
			k:        1 + (7*b+11*c)%40,
			shape:    (b + c) % 4,
			sel:      sels[(3*b+c)%4],
			constant: 13*b + 7*c,
			topic:    topics[(b+2*c)%4],
			cat:      travelCats[(2*b+c)%4],
		})
	}
	return out
}

// travelCold sends distinct conf+flight+hotel templates, block by block
// of cost classes. Every request has its own plan-cache key: the
// server's key covers the head, the predicate shape and annotation, and
// the metric, cache and K knobs.
//
// The server runs without execution feedback. With it, each execution
// refreshes the service statistics every later search is priced with,
// so a search's cost depends on the results of the requests before it:
// on one seed, runs with the same requests in a different order
// differed by 1.6× in throughput. Feedback stays on in the hot
// workloads, whose epoch bumps are part of what they exercise.
func travelCold(rng *rand.Rand) *Workload {
	w := &Workload{Name: "travel-cold", World: "travel", KeyVars: travelKeyVars, NoFeedback: true}
	seen := map[string]bool{}
	draw := func(c coldClass) Request {
		pred, shape := travelPred(c.shape, c.constant, c.sel)
		for {
			head := travelHead(rng)
			key := fmt.Sprintf("%s|%s|%s|%s|%d", strings.Join(head, ","), shape, c.metric, c.cache, c.k)
			if !seen[key] {
				seen[key] = true
				return Request{
					Template: travelText(head, c.topic, pred),
					Bindings: map[string]string{"cat": c.cat},
					Metric:   c.metric,
					Cache:    c.cache,
					K:        c.k,
				}
			}
		}
	}
	for b := 0; len(w.Distinct) < coldLen; b++ {
		for _, c := range coldBlock(b) {
			if len(w.Distinct) < coldLen {
				w.Distinct = append(w.Distinct, draw(c))
			}
		}
	}
	for i := range w.Distinct {
		w.Seq = append(w.Seq, int32(i))
	}
	// Warm-up requests use K values no timed request uses, so they
	// share no plan-cache key with the timed requests.
	for k := 41; k <= 42; k++ {
		w.Warmup = append(w.Warmup, draw(coldClass{metric: "etm", cache: "one-call", k: k, topic: "'DB'", cat: "luxury"}))
	}
	return w
}

// zipfTemplates are the two score thresholds of the skewed world's
// catalog ⋈ review template.
var zipfTemplates = []string{
	"q(Item, Score) :- catalog($tag, Item), review(Item, Score), Score >= 4.",
	"q(Item, Score) :- catalog($tag, Item), review(Item, Score), Score >= 3.",
}

// zipfHot draws tags by the world's own Zipf law (s = 1.1 over 50
// tags), so a few templates × bindings repeat constantly.
func zipfHot(rng *rand.Rand) *Workload {
	w := &Workload{Name: "zipf-hot", World: "zipf", KeyVars: []string{"Item", "Score"}}
	const tags = 50
	ks := []int{5, 10, 20}
	for _, t := range zipfTemplates {
		for _, k := range ks {
			for i := 0; i < tags; i++ {
				w.Distinct = append(w.Distinct, Request{
					Template: t,
					Bindings: map[string]string{"tag": simweb.ZipfTag(i)},
					K:        k,
				})
			}
		}
	}
	cum := cumulative(simweb.ZipfWeights(tags, 1.1))
	draw := func() int32 {
		t := rng.Intn(len(zipfTemplates))
		k := rng.Intn(len(ks))
		tag := sort.SearchFloat64s(cum, rng.Float64())
		if tag >= tags {
			tag = tags - 1
		}
		return int32((t*len(ks)+k)*tags + tag)
	}
	w.Seq = make([]int32, hotSeqLen)
	for i := range w.Seq {
		w.Seq[i] = draw()
	}
	// Warm-up: about a second of the same traffic, so the caches and
	// statistics have settled when the window opens.
	for i := 0; i < 600; i++ {
		w.Warmup = append(w.Warmup, w.Distinct[draw()])
	}
	return w
}

func cumulative(weights []float64) []float64 {
	out := make([]float64, len(weights))
	sum := 0.0
	for i, v := range weights {
		sum += v
		out[i] = sum
	}
	return out
}

// fleetTemplates are the hot travel templates the fleet serves: topic
// and hotel category are bindings, so each template × K is one
// template-cache entry whatever the binding.
var fleetTemplates = []string{
	"q(Conf, City, Hotel, HPrice, FPrice) :- flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, $cat, Start, End, HPrice), conf($topic, Conf, Start, End, City), FPrice + HPrice < 2000 {0.01}.",
	"q(Hotel, Conf, FPrice, Start) :- conf($topic, Conf, Start, End, City), flight('Milano', City, Start, End, OT, RT, FPrice), hotel(Hotel, City, $cat, Start, End, HPrice), HPrice <= 400 {0.3}.",
}

// travelFleet draws the hot travel templates with topics skewed
// towards DB (the topic with the most conferences) and categories
// uniform.
func travelFleet(rng *rand.Rand) *Workload {
	w := &Workload{Name: "travel-fleet", World: "travel", Workers: 2, KeyVars: travelKeyVars}
	topics := []string{"DB", "AI", "SE", "NET", "OS"}
	topicCum := cumulative([]float64{0.6, 0.15, 0.1, 0.1, 0.05})
	ks := []int{5, 10}
	mk := func(t, k, topic, cat int) Request {
		return Request{
			Template: fleetTemplates[t],
			Bindings: map[string]string{"topic": topics[topic], "cat": travelCats[cat]},
			K:        ks[k],
		}
	}
	for t := range fleetTemplates {
		for k := range ks {
			for topic := range topics {
				for cat := range travelCats {
					w.Distinct = append(w.Distinct, mk(t, k, topic, cat))
				}
			}
		}
	}
	draw := func() int32 {
		topic := sort.SearchFloat64s(topicCum, rng.Float64())
		if topic >= len(topics) {
			topic = len(topics) - 1
		}
		t, k, cat := rng.Intn(len(fleetTemplates)), rng.Intn(len(ks)), rng.Intn(len(travelCats))
		return int32(((t*len(ks)+k)*len(topics)+topic)*len(travelCats) + cat)
	}
	w.Seq = make([]int32, hotSeqLen)
	for i := range w.Seq {
		w.Seq[i] = draw()
	}
	// Warm-up: every template × K once, then about two seconds of the
	// same traffic.
	for t := range fleetTemplates {
		for k := range ks {
			w.Warmup = append(w.Warmup, mk(t, k, 0, 0))
		}
	}
	for i := 0; i < 16; i++ {
		w.Warmup = append(w.Warmup, w.Distinct[draw()])
	}
	return w
}
