package dist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cost"
	. "mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/service"
)

// httpCluster runs n workers behind real HTTP servers (loopback) and
// returns a coordinator speaking HTTPTransport to them.
func httpCluster(t *testing.T, w world, n int) (*Coordinator, []*Worker) {
	t.Helper()
	reg, _ := w.make()
	co := &Coordinator{
		Registry: reg,
		Metric:   cost.ExecTime{},
		Mode:     card.OneCall,
		K:        10,
	}
	var workers []*Worker
	for i := 0; i < n; i++ {
		wreg, _ := w.make()
		wk := NewWorker(wreg, opt.NewPlanCache(16))
		wk.Parallelism = 1
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(srv.Close)
		workers = append(workers, wk)
		co.Workers = append(co.Workers, &HTTPTransport{Base: srv.URL})
	}
	return co, workers
}

// TestHTTPTransportDifferential: the full protocol over real HTTP —
// sharded search, skeleton wire format, bound sync — returns the
// sequential optimizer's plan.
func TestHTTPTransportDifferential(t *testing.T) {
	w := worlds[2] // zipf keeps the HTTP round-trips cheap
	reg, sch := w.make()
	q := resolve(t, w.text, sch)
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	want, err := seq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	co, _ := httpCluster(t, w, 2)
	got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Best.Signature() != want.Best.Signature() {
		t.Fatalf("http cluster (%g, %s), sequential (%g, %s)",
			got.Cost, got.Best.Signature(), want.Cost, want.Best.Signature())
	}
}

// TestHTTPGossipAndWarmup: epoch bumps and template entries travel
// over the wire endpoints.
func TestHTTPGossipAndWarmup(t *testing.T) {
	w := worlds[2]
	co, workers := httpCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()

	if _, err := co.OptimizeTemplate(ctx, q); err != nil {
		t.Fatal(err)
	}
	epoch := co.Registry.BumpEpoch("review")
	if err := co.Gossip(ctx, []service.EpochBump{{Service: "review", Epoch: epoch}}); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, wk := range workers {
		for _, e := range wk.Cache().Entries() {
			if e.Stale {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("HTTP gossip marked nothing stale")
	}

	// Warm a second HTTP cluster from the first worker's cache.
	co2, workers2 := httpCluster(t, w, 2)
	n, err := co2.WarmWorkers(ctx, workers[0].Cache())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("HTTP warmup imported nothing")
	}
	imported := 0
	for _, wk := range workers2 {
		imported += len(wk.Cache().Entries())
	}
	if imported == 0 {
		t.Fatal("warmed caches are empty")
	}

	// A malformed request gets the JSON error envelope, not a hang.
	tr := co.Workers[0]
	if _, err := tr.Search(ctx, SearchRequest{Query: "not a query", ShardCount: 2}); err == nil {
		t.Fatal("malformed query did not error over HTTP")
	}
}

// TestUncachedWorker: a worker built without a plan cache (mdqworker
// -plancache 0) still serves every protocol endpoint over HTTP —
// sharded search, template optimization, gossip, template export and
// import, and /dist/info.
func TestUncachedWorker(t *testing.T) {
	w := worlds[2]
	reg, sch := w.make()
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	want, err := seq.Optimize(resolve(t, w.text, sch))
	if err != nil {
		t.Fatal(err)
	}

	wreg, _ := w.make()
	wk := NewWorker(wreg, nil)
	wk.Parallelism = 1
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(srv.Close)
	co := &Coordinator{Registry: reg, Metric: cost.ExecTime{}, Mode: card.OneCall, K: 10,
		Workers: []Transport{&HTTPTransport{Base: srv.URL}}}
	ctx := context.Background()
	q := resolve(t, w.text, mustSchema(t, co.Registry))

	got, err := co.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Best.Signature() != want.Best.Signature() {
		t.Fatalf("uncached worker (%g, %s), sequential (%g, %s)",
			got.Cost, got.Best.Signature(), want.Cost, want.Best.Signature())
	}
	for i := 0; i < 2; i++ {
		r, err := co.OptimizeTemplate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.TemplateHit {
			t.Fatal("uncached worker claimed a template hit")
		}
	}
	if err := co.Gossip(ctx, []service.EpochBump{{Service: "review", Epoch: co.Registry.BumpEpoch("review")}}); err != nil {
		t.Fatal(err)
	}

	local := opt.NewPlanCache(16)
	seq.Cache, seq.CacheSalt, seq.Epochs = local, reg.CacheSalt(), reg
	if _, err := seq.OptimizeTemplate(resolve(t, w.text, sch)); err != nil {
		t.Fatal(err)
	}
	if n, err := co.WarmWorkers(ctx, local); err != nil || n != 0 {
		t.Fatalf("warming an uncached worker imported %d entries (err %v), want 0", n, err)
	}
	var exported []opt.TemplateWireEntry
	getJSON(t, srv.URL+"/dist/templates", &exported)
	if len(exported) != 0 {
		t.Fatalf("uncached worker exported %d template entries", len(exported))
	}
	var info struct {
		Services []string       `json:"services"`
		Cache    opt.CacheStats `json:"cache"`
	}
	getJSON(t, srv.URL+"/dist/info", &info)
	if len(info.Services) != 2 || info.Cache.Searches != 0 {
		t.Fatalf("/dist/info = %+v, want 2 services and no cache activity", info)
	}
}

// getJSON decodes the JSON body of a successful GET.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
