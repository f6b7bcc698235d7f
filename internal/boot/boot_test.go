package boot

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/opt"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// build parses args as a server command line over the zipf world.
func build(t *testing.T, args ...string) (*Node, error) {
	t.Helper()
	fs := flag.NewFlagSet("boot", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(append([]string{"-world", "zipf", "-parallel", "1"}, args...)); err != nil {
		t.Fatal(err)
	}
	return f.Build(simweb.TravelOptions{}, serve.NewMetrics())
}

// TestRunDrainLadder ends the server's context while a request is in
// flight: the request still completes, the feedback flush folds in
// what that request observed (so it ran after the request), and the
// plan cache saved last loads back.
func TestRunDrainLadder(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plans.json")
	n, err := build(t, "-cache-file", file)
	if err != nil {
		t.Fatalf("missing cache file at start-up: %v", err)
	}
	q, err := cq.Parse(simweb.ZipfExampleText)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := n.Registry.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		t.Fatal(err)
	}
	o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall}, K: 10,
		ChooseMethod: n.Registry.MethodChooser(), Parallelism: 1, Cache: n.PlanCache,
		CacheSalt: n.Registry.CacheSalt(), Epochs: n.Registry}
	if _, err := o.OptimizeTemplate(q); err != nil {
		t.Fatal(err)
	}

	adm := serve.NewAdmission(4, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	n.Mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		done, err := adm.Acquire(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer done()
		close(entered)
		<-release
		// Observations made at the very end of the request: only a
		// flush that runs after it can fold them into the profile.
		catalog, _ := n.Registry.Lookup("catalog")
		req := service.Request{Inputs: []schema.Value{schema.S(simweb.ZipfTag(0))}}
		if _, err := catalog.Invoke(context.Background(), 0, req); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "done")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- n.Run(ctx, ln, adm) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{status: resp.StatusCode, body: string(b), err: err}
	}()
	<-entered
	cancel()
	for deadline := time.Now().Add(5 * time.Second); !adm.Draining(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shutdown did not start draining admissions")
		}
	}
	select {
	case err := <-ran:
		t.Fatalf("Run returned with a request in flight: %v", err)
	default:
	}
	close(release)

	r := <-replies
	if r.err != nil || r.status != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request: status %d body %q err %v", r.status, r.body, r.err)
	}
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.Registry.Epoch("catalog") == 0 {
		t.Fatal("the shutdown flush did not fold the in-flight request's observations")
	}
	loaded, err := opt.NewPlanCache(16).LoadFile(file, n.Registry)
	if err != nil {
		t.Fatalf("loading the saved cache: %v", err)
	}
	if loaded == 0 {
		t.Fatal("the saved cache holds no template entries")
	}
}

// TestBuildCacheFile: at start-up a missing cache file is a first
// start, a corrupt one is an error, and -plancache 0 builds no cache.
func TestBuildCacheFile(t *testing.T) {
	dir := t.TempDir()
	n, err := build(t, "-cache-file", filepath.Join(dir, "missing.json"))
	if err != nil {
		t.Fatalf("missing cache file: %v", err)
	}
	if n.PlanCache == nil || n.PlanCache.Len() != 0 {
		t.Fatal("a missing cache file should leave an empty plan cache")
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := build(t, "-cache-file", corrupt); err == nil {
		t.Fatal("a corrupt cache file loaded without error")
	}

	n, err = build(t, "-plancache", "0", "-cache-file", corrupt)
	if err != nil {
		t.Fatalf("-plancache 0: %v", err)
	}
	if n.PlanCache != nil {
		t.Fatal("-plancache 0 built a plan cache")
	}
}
