// Command perfbench is mdq's benchmark. It boots the real mdqserve and
// mdqworker binaries on loopback, drives them over HTTP with a closed
// loop of 2 clients, checks every answer against reference answers
// computed from the world's tables, and reports end-to-end metrics;
// with -trace 1 it also replays the same requests in-process through
// the layers' public functions and reports per-layer metrics.
//
// Usage (from the repository root, after building the binaries):
//
//	perfbench -bin DIR -workload travel-cold|zipf-hot|travel-fleet \
//	          -seed N -seconds S -trace 0|1 [-logs DIR]
//
// perfbench/run.sh builds everything and runs it. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many launches a run times for setup_s: the rounds'
// own, then launches that are stopped at once.
const setupRuns = 9

// The property floors: a run whose workload stops exercising its layer
// fails. Each sits below the share measured on 2 CPUs, with headroom.
const (
	// travel-cold: share of requests that ran a full search (measured
	// 1.000).
	coldMissFloor = 0.95
	// zipf-hot: share served from the plan cache (measured 0.90–0.92)
	// and result-cache hit share (0.97–0.98).
	hotServedFloor   = 0.8
	hotRescacheFloor = 0.9
	// travel-fleet: fragments dispatched per executed query (measured
	// 3.0).
	fleetFragmentsFloor = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the timed window in seconds")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding mdqserve and mdqworker")
		logDir   = flag.String("logs", ".bench_build/logs", "directory for server logs")
	)
	flag.Parse()
	if err := os.MkdirAll(*logDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *binDir, *logDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report collects metrics and prints each with its unit as it is set.
type report struct {
	m     map[string]metric
	units map[string]string
}

func newReport(defs []metricDef) *report {
	r := &report{m: map[string]metric{}, units: map[string]string{}}
	for _, d := range defs {
		r.units[d.name] = d.unit
	}
	return r
}

func (r *report) set(name string, v float64, note string) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-36s %14.6g %s", name, v, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	fmt.Println(line)
}

// rounds is how many fresh server sets a run drives, each for an equal
// share of the window. The adaptive state a server set settles into
// (feedback epochs, cache contents) differs from one set to the next;
// pooling several sets makes a run's figures depend less on one.
const rounds = 3

// window totals what the timed windows of a run's rounds observed.
type window struct {
	load *loadResult
	// Sums over rounds of /proc and /metrics growth.
	ticks                                     int64
	rescacheHits, rescacheMisses, invalidates float64
	executions, fragments                     float64
	requests, requestSecs, optimizeSecs       float64
	executeSecs, coalesced, responseBytes     float64
	rss                                       []float64 // MB, sampled every 100 ms
	// warmWrong counts warm-up answers that failed the check.
	warmWrong int
}

// round launches one server set, warms it up, drives it for d starting
// at sequence position from, and stops it.
func round(wl *Workload, ref *reference, bodies [][]byte, from int, d time.Duration, binDir, logDir string, w *window) (time.Duration, int, error) {
	cl, setup, err := launch(wl, binDir, logDir)
	if err != nil {
		return 0, 0, err
	}
	defer cl.stop()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	wrong, err := warmup(client, cl.front.base, wl, ref)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
	}
	w.warmWrong += wrong
	before, err := cl.sample()
	if err != nil {
		return 0, 0, err
	}
	steal0 := stealTicks()
	stop := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- cl.sampleRSS(100*time.Millisecond, stop) }()
	lr, next := drive(client, cl.front.base, wl, ref, bodies, from, d)
	close(stop)
	w.rss = append(w.rss, <-rssc...)
	after, err := cl.sample()
	if err != nil {
		return 0, 0, err
	}
	fmt.Printf("round: %d ok of %d in %.2fs (%.4g/s), %d ticks, steal %d ticks\n", lr.ok, lr.attempted, lr.window.Seconds(),
		float64(lr.ok)/lr.window.Seconds(), after.ticks-before.ticks, stealTicks()-steal0)
	w.load.add(lr)
	w.ticks += after.ticks - before.ticks
	front := func(i int) bool { return i == len(cl.procs)-1 }
	workers := func(i int) bool { return i < len(cl.procs)-1 }
	// The result cache lives where the service calls happen: in the
	// single process, or on each worker of a fleet.
	rc := front
	if wl.Workers > 0 {
		rc = workers
	}
	w.rescacheHits += delta(before, after, rc, "mdq_result_cache_events_total", `event="hit"`)
	w.rescacheMisses += delta(before, after, rc, "mdq_result_cache_events_total", `event="miss"`)
	w.invalidates += delta(before, after, rc, "mdq_result_cache_events_total", `event="invalidate"`)
	w.executions += delta(before, after, front, "mdq_execute_seconds_count")
	w.fragments += delta(before, after, workers, "mdq_worker_requests_total", `endpoint="/dist/execute"`)
	w.requests += delta(before, after, front, "mdq_request_seconds_count", `endpoint="/query"`)
	w.requestSecs += delta(before, after, front, "mdq_request_seconds_sum", `endpoint="/query"`)
	w.optimizeSecs += delta(before, after, front, "mdq_optimize_seconds_sum")
	w.executeSecs += delta(before, after, front, "mdq_execute_seconds_sum")
	w.coalesced += delta(before, after, front, "mdq_query_coalesced_total")
	w.responseBytes += delta(before, after, front, "mdq_bytes_streamed_total")
	return setup, next, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func run(name string, seed int64, span time.Duration, traced bool, binDir, logDir string) (*result, error) {
	wl, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(wl.World)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(wl, w)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(wl.Distinct))
	for i, r := range wl.Distinct {
		if bodies[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	fmt.Printf("workload %s seed %d: %d distinct requests, %d reference joins\n", name, seed, len(wl.Distinct), ref.bases)

	win := &window{load: &loadResult{}}
	var setups []float64
	next := 0
	for i := 0; i < rounds; i++ {
		setup, n, err := round(wl, ref, bodies, next, span/rounds, binDir, logDir, win)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		next = n
	}
	lr := win.load
	if lr.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", lr.firstErr)
	}
	if lr.ok == 0 {
		return nil, fmt.Errorf("no request succeeded in the timed windows (%d attempted)", lr.attempted)
	}

	// Property floors, checked on every run.
	ok := float64(lr.ok)
	missShare := float64(lr.miss) / ok
	rescacheHit := ratio(win.rescacheHits, win.rescacheHits+win.rescacheMisses)
	fragments := ratio(win.fragments, win.executions)
	var floorErr string
	switch name {
	case "travel-cold":
		if missShare < coldMissFloor {
			floorErr = fmt.Sprintf("full-search share %.3f below floor %.2f", missShare, coldMissFloor)
		}
	case "zipf-hot":
		if 1-missShare < hotServedFloor || rescacheHit < hotRescacheFloor {
			floorErr = fmt.Sprintf("plan-cache-served share %.3f (floor %.2f), result-cache hit share %.3f (floor %.2f)",
				1-missShare, hotServedFloor, rescacheHit, hotRescacheFloor)
		}
	case "travel-fleet":
		if fragments < fleetFragmentsFloor {
			floorErr = fmt.Sprintf("%.2f fragments per query, floor %d", fragments, fleetFragmentsFloor)
		}
	}
	if floorErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: property floor:", floorErr)
	}
	fmt.Printf("%d rounds, %.2fs timed: %d attempted, %d ok (%d rows checked, %d empty answers), %d errors, %d shed, %d wrong; full-search share %.3f, result-cache hit share %.3f, fragments/query %.2f\n",
		rounds, lr.window.Seconds(), lr.attempted, lr.ok, lr.rows, lr.empty, lr.errors, lr.shed, lr.wrong, missShare, rescacheHit, fragments)

	res := &result{
		Correct:   lr.wrong == 0 && win.warmWrong == 0 && floorErr == "",
		Attempted: lr.attempted,
		Failed:    lr.failed(),
	}
	if !traced {
		// More launches, not driven, for a steadier set-up median.
		for len(setups) < setupRuns {
			cl, d, err := launch(wl, binDir, logDir)
			if err != nil {
				return nil, err
			}
			cl.stop()
			setups = append(setups, d.Seconds())
		}
		r := newReport(endToEnd)
		n := fmt.Sprintf("n=%d", len(lr.latencies))
		r.set("query_p50_ms", percentile(lr.latencies, 50), n)
		r.set("query_p90_ms", percentile(lr.latencies, 90), n)
		// Closed-loop rate: clients × successes / client time.
		r.set("throughput_qps", ok*clients/lr.clientTime.Seconds(), "")
		r.set("cpu_ms_per_query", float64(win.ticks)*1000/clockTick/ok, fmt.Sprintf("%d server processes", wl.Workers+1))
		r.set("rss_mb", median(win.rss), fmt.Sprintf("median of %d samples", len(win.rss)))
		r.set("answered_share", 1-float64(lr.failed())/float64(lr.attempted), "")
		r.set("setup_s", median(setups), fmt.Sprintf("median of %d launches", len(setups)))
		res.Metrics = r.m
		return res, nil
	}

	r := newReport(perLayer)
	r.set("opt.miss_share", missShare, "untraced run")
	r.set("opt.revalidated_share", float64(lr.revalidated)/ok, "untraced run")
	r.set("rescache.hit_share", rescacheHit, "untraced run")
	r.set("rescache.invalidations_per_kq", win.invalidates*1000/ok, "untraced run")
	r.set("dist.fragments_per_query", fragments, "untraced run")
	r.set("serve.handler_ms_per_query", ratio(win.requestSecs-win.optimizeSecs-win.executeSecs, win.requests)*1000, "untraced run")
	r.set("serve.coalesced_share", ratio(win.coalesced, win.requests), "untraced run")
	r.set("serve.response_kb", ratio(win.responseBytes, win.requests)/1024, "untraced run")

	// The replays take a quarter as long as the timed windows.
	tr, un, err := replay(wl, ref, span/4)
	if err != nil {
		return nil, err
	}
	for _, rr := range []*replayResult{tr, un} {
		res.Attempted += len(rr.steps)
		res.Failed += rr.errs + rr.wrong
		if rr.wrong > 0 {
			res.Correct = false
		}
		if rr.firstErr != "" {
			fmt.Fprintln(os.Stderr, "perfbench: replay failure:", rr.firstErr)
		}
	}
	layerMetrics(r, tr, un)
	res.Metrics = r.m
	return res, nil
}

// layerMetrics reports the replay-derived per-layer metrics.
func layerMetrics(r *report, tr, un *replayResult) {
	n := float64(len(tr.steps))
	note := fmt.Sprintf("traced replay, n=%d", len(tr.steps))
	var cqUs, searchMs, hitMs, execMs, firstRowMs []float64
	var searches, states, vectors, allocs, allocMB, planCost, execMB, rows float64
	var tracedNs, untracedNs, stepNs float64
	for _, s := range tr.steps {
		cqUs = append(cqUs, float64(s.cq)/1e3)
		if s.search {
			searchMs = append(searchMs, float64(s.opt)/1e6)
			searches++
			states += float64(s.stats.StatesVisited)
			vectors += float64(s.stats.FetchVectors)
			allocs += float64(s.optAllocs)
			allocMB += float64(s.optBytes) / (1 << 20)
		} else {
			hitMs = append(hitMs, float64(s.opt)/1e6)
		}
		execMs = append(execMs, float64(s.exec)/1e6)
		if s.firstRow > 0 {
			firstRowMs = append(firstRowMs, float64(s.firstRow)/1e6)
		}
		planCost += s.cost
		execMB += float64(s.execBytes) / (1 << 20)
		rows += float64(s.rows)
		tracedNs += float64(s.total)
		stepNs += float64(s.cq + s.opt + s.exec)
	}
	for _, s := range un.steps {
		untracedNs += float64(s.total)
	}
	per := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	perSearch := func(v float64) float64 {
		if searches == 0 {
			return 0
		}
		return v / searches
	}
	c := tr.c
	r.set("cq.parse_bind_us", percentile(cqUs, 50), note)
	r.set("cq.self_ms", per(float64(tr.selfNs["cq"])/1e6), note)
	r.set("opt.search_ms", percentile(searchMs, 50), fmt.Sprintf("%d searches", len(searchMs)))
	r.set("opt.hit_ms", percentile(hitMs, 50), fmt.Sprintf("%d cache serves", len(hitMs)))
	for p := 0; p < 3; p++ {
		r.set(fmt.Sprintf("opt.phase%d_ms", p+1), perSearch(float64(tr.phaseNs[p])/1e6), "self time per search")
	}
	r.set("opt.states_visited", perSearch(states), "per search")
	r.set("opt.fetch_vectors", perSearch(vectors), "per search")
	r.set("opt.allocs_per_search", perSearch(allocs), "")
	r.set("opt.alloc_mb_per_search", perSearch(allocMB), "")
	r.set("opt.plan_cost", per(planCost), "mean estimated cost")
	r.set("opt.self_ms", per(float64(tr.selfNs["opt"])/1e6), note)
	r.set("exec.run_ms", percentile(execMs, 50), note)
	r.set("exec.first_row_ms", percentile(firstRowMs, 50), fmt.Sprintf("n=%d", len(firstRowMs)))
	r.set("exec.alloc_mb_per_query", per(execMB), "")
	calls := float64(c.svcCalls.Load())
	if calls > 0 {
		r.set("exec.rows_per_call", rows/calls, "answers per service invocation")
	} else {
		r.set("exec.rows_per_call", 0, "no service invocation")
	}
	r.set("exec.self_ms", per(float64(tr.selfNs["exec"])/1e6), note)
	r.set("service.calls_per_query", per(calls), "counted at the services")
	r.set("service.busy_ms_per_query", per(float64(c.svcBusyNs.Load())/1e6), "")
	r.set("service.sim_s_per_query", per(float64(c.svcSimNs.Load())/1e9), "simulated τ, not waited at -scale 0")
	r.set("service.self_ms", per(float64(tr.selfNs["service"])/1e6), note)
	hits, misses := float64(c.cacheHits.Load()), float64(c.cacheMisses.Load())
	if hits+misses > 0 {
		r.set("rescache.replay_hit_share", hits/(hits+misses), note)
	} else {
		r.set("rescache.replay_hit_share", 0, "no lookups")
	}
	c.mu.Lock()
	var slowest []float64
	for _, v := range c.slowestMs {
		slowest = append(slowest, v)
	}
	r.set("dist.search_rpc_ms", percentile(c.searchMs, 50), fmt.Sprintf("n=%d", len(c.searchMs)))
	r.set("dist.search_slowest_shard_ms", percentile(slowest, 50), fmt.Sprintf("n=%d", len(slowest)))
	r.set("dist.execute_stream_ms", percentile(c.streamMs, 50), fmt.Sprintf("n=%d", len(c.streamMs)))
	c.mu.Unlock()
	r.set("dist.frames_per_query", per(float64(c.frames.Load())), "")
	r.set("dist.wire_kb_per_query", per(float64(c.wireBytes.Load())/1024), "")
	r.set("dist.sync_rpcs_per_query", per(float64(c.syncs.Load())), "")
	r.set("dist.cancelled_streams_per_query", per(float64(c.cancelled.Load())), "")
	r.set("dist.self_ms", per(float64(tr.selfNs["dist"])/1e6), note)
	if untracedNs > 0 {
		r.set("trace.overhead_share", tracedNs/untracedNs-1, fmt.Sprintf("untraced replay n=%d", len(un.steps)))
		r.set("trace.accounted_share", stepNs/untracedNs, "")
	} else {
		r.set("trace.overhead_share", 0, "empty replay")
		r.set("trace.accounted_share", 0, "empty replay")
	}
}

// stealTicks reads the machine's stolen CPU time from /proc/stat.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
