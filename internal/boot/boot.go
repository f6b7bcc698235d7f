// Package boot wires a server binary. It owns the flags mdqserve and
// mdqworker share, builds what those flags configure — the built-in
// world, the plan cache, the service-call result cache, the feedback
// policy and the optional pprof endpoints — and runs the HTTP server
// until its context ends, followed by the one shutdown ladder both
// binaries use: stop admitting, drain in-flight requests, flush
// pending feedback into the profiles, then save the plan cache.
package boot

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// Flags holds the settings every server binary shares. Register
// declares them on a flag set; Build turns them into a Node.
type Flags struct {
	World         string
	Scale         float64
	Parallel      int
	PlanCache     int
	CacheTTL      time.Duration
	CacheBytes    int64
	CacheFile     string
	Buffer        int
	Rescache      int
	RescacheBytes int64
	RescacheTTL   time.Duration
	Feedback      bool
	MinCalls      int64
	MinDrift      float64
	DrainTimeout  time.Duration
	Pprof         bool
}

// Register declares the shared server flags on fs and returns the
// struct their parsed values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.World, "world", "travel", "built-in world: travel, bio, mashup or zipf")
	fs.Float64Var(&f.Scale, "scale", 0, "sleep scale for simulated latencies (0 = report only)")
	fs.IntVar(&f.Parallel, "parallel", opt.AutoParallelism, "optimizer search workers (-1 = one per CPU, 1 = sequential)")
	fs.IntVar(&f.PlanCache, "plancache", 128, "plan cache capacity in entries (0 disables)")
	fs.DurationVar(&f.CacheTTL, "cachettl", 0, "plan cache entry TTL (0 = no expiry)")
	fs.Int64Var(&f.CacheBytes, "cachebytes", 0, "approximate plan cache byte budget (0 = unlimited)")
	fs.StringVar(&f.CacheFile, "cache-file", "", "load the template cache from this file at start and save it on SIGINT/SIGTERM")
	fs.IntVar(&f.Buffer, "buffer", exec.DefaultBufferSize, "streaming executor edge buffer in tuples (larger = fewer stalls, more memory; smaller = tighter memory, earlier backpressure)")
	fs.IntVar(&f.Rescache, "rescache", rescache.DefaultMaxEntries, "shared service-call result cache capacity in entries (0 disables)")
	fs.Int64Var(&f.RescacheBytes, "rescache-bytes", rescache.DefaultMaxBytes, "approximate result cache byte budget (<0 = unlimited)")
	fs.DurationVar(&f.RescacheTTL, "rescache-ttl", 0, "result cache entry TTL (0 = no expiry; epochs still invalidate)")
	fs.BoolVar(&f.Feedback, "feedback", true, "fold executed traffic back into service profiles (stats epochs)")
	fs.Int64Var(&f.MinCalls, "feedback-min-calls", 4, "observed calls required before a profile refresh")
	fs.Float64Var(&f.MinDrift, "feedback-min-drift", 0.1, "relative statistics drift required before a refresh")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 15*time.Second, "max time to drain in-flight requests on shutdown")
	fs.BoolVar(&f.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	return f
}

// Node is one server process's shared wiring.
type Node struct {
	// Registry is the world's registry, every service observed.
	Registry *service.Registry
	// Mux serves the world's services (GET /services, /services/<name>/…)
	// and, with -pprof, /debug/pprof/; binaries add their own endpoints.
	Mux *http.ServeMux
	// Services lists the served service names.
	Services []string
	// PlanCache is subscribed to the registry's statistics epochs and
	// warmed from -cache-file; nil with -plancache 0.
	PlanCache *opt.PlanCache
	// ResultCache is the shared service-call result store, bound to
	// the registry's epochs; nil with -rescache 0.
	ResultCache exec.Cache
	// Feedback is the profile-refresh policy; nil with -feedback=false.
	Feedback *service.FeedbackPolicy

	flags *Flags
}

// Build opens the world named by -world (travel applies to the travel
// world only), observes every service and builds the caches and the
// feedback policy the flags configure. Result-cache events count into
// metrics. A missing -cache-file is a first start and not an error; an
// unreadable or corrupt one is.
func (f *Flags) Build(travel simweb.TravelOptions, metrics *serve.Metrics) (*Node, error) {
	reg, _, err := simweb.Open(f.World, travel)
	if err != nil {
		return nil, err
	}
	reg.ObserveAll()
	n := &Node{Registry: reg, flags: f}
	n.Mux, n.Services = httpwrap.ServeRegistry(reg, httpwrap.HandlerOptions{SleepScale: f.Scale})
	if f.PlanCache > 0 {
		n.PlanCache = opt.NewPlanCacheWith(opt.Policy{Capacity: f.PlanCache, TTL: f.CacheTTL, MaxBytes: f.CacheBytes})
		reg.SubscribeEpochs(n.PlanCache, n.PlanCache.InvalidateService)
		if f.CacheFile != "" {
			k, err := n.PlanCache.LoadFile(f.CacheFile, reg)
			switch {
			case err == nil:
				fmt.Printf("warmed %d template entries from %s\n", k, f.CacheFile)
			case !errors.Is(err, os.ErrNotExist):
				return nil, fmt.Errorf("loading cache file: %w", err)
			}
		}
	}
	if f.Rescache != 0 {
		store := rescache.New(rescache.Config{MaxEntries: f.Rescache, MaxBytes: f.RescacheBytes, TTL: f.RescacheTTL})
		store.Observer = rescache.MetricsObserver(metrics)
		store.Bind(reg)
		n.ResultCache = store
	}
	if f.Feedback {
		n.Feedback = &service.FeedbackPolicy{MinCalls: f.MinCalls, MinDrift: f.MinDrift}
	}
	if f.Pprof {
		// Opt-in only: profiles expose internals, so the endpoints are
		// mounted solely behind the flag (enable on trusted networks).
		n.Mux.HandleFunc("/debug/pprof/", pprof.Index)
		n.Mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		n.Mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		n.Mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		n.Mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pprof enabled on /debug/pprof/\n")
	}
	return n, nil
}

// Run serves Mux on ln until ctx ends, then shuts down in this order:
// adm (when non-nil) stops admitting, the HTTP server stops accepting
// and waits for in-flight requests, adm drains what it admitted,
// pending feedback observations fold into the profiles, and the plan
// cache is saved to -cache-file. The order makes the saved entries
// carry the statistics the server learned from its last requests.
// Draining is bounded by -drain-timeout. Run returns the server's
// error if it stops before ctx ends, and a failed save.
func (n *Node) Run(ctx context.Context, ln net.Listener, adm *serve.Admission) error {
	hs := &http.Server{
		Handler:           n.Mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("shutting down: draining in-flight requests\n")
	if adm != nil {
		adm.StartDrain()
	}
	sdCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), n.flags.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if adm != nil {
		if err := adm.Drain(sdCtx); err != nil {
			log.Printf("draining admissions: %v", err)
		}
	}
	if k := n.Registry.RefreshObserved(); k > 0 {
		fmt.Printf("flushed pending feedback into %d profile(s)\n", k)
	}
	if n.flags.CacheFile != "" && n.PlanCache != nil {
		if err := n.PlanCache.SaveFile(n.flags.CacheFile); err != nil {
			return fmt.Errorf("saving cache file: %w", err)
		}
		fmt.Printf("saved template cache to %s\n", n.flags.CacheFile)
	}
	return nil
}
