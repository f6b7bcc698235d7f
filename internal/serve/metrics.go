package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a dependency-free metrics registry rendering the
// Prometheus text exposition format (counters, gauges, cumulative
// histograms). It exists so the serving layer can expose GET /metrics
// without pulling a client library into a module that otherwise has
// no external dependencies. All instruments are safe for concurrent
// use; registration is idempotent (asking for an existing name
// returns the existing instrument, so handlers and middleware can
// re-resolve instruments without plumbing).
type Metrics struct {
	mu     sync.Mutex
	order  []string // registration order of metric family names
	family map[string]*family
}

// family is one metric name: its help text, kind, and the per-label
// children (the empty label set is the "" child).
type family struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	mu   sync.Mutex
	keys []string // insertion order of label keys
	kids map[string]instrument
	// bounds apply to histogram children.
	bounds []float64
}

// instrument is what a family's children have in common: they render
// themselves as exposition lines.
type instrument interface {
	render(w *strings.Builder, name, labels string)
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{family: map[string]*family{}}
}

// lookup returns (creating if needed) the named family, enforcing
// kind consistency.
func (m *Metrics) lookup(name, help, kind string, bounds []float64) *family {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.family[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, kids: map[string]instrument{}, bounds: bounds}
		m.family[name] = f
		m.order = append(m.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("serve: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// child returns (creating if needed) one labeled instrument of a
// family. labels is the rendered {k="v",…} string, "" for none.
func (f *family) child(labels string, make func() instrument) instrument {
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.kids[labels]
	if !ok {
		in = make()
		f.kids[labels] = in
		f.keys = append(f.keys, labels)
	}
	return in
}

// Labels renders a label set deterministically (sorted by key), so
// the same set always maps to the same child.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("serve: Labels takes key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing float64.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v (v must be ≥ 0).
func (c *Counter) Add(v float64) {
	for {
		cur := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if c.bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// render implements instrument.
func (c *Counter) render(w *strings.Builder, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	for {
		cur := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if g.bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// render implements instrument.
func (g *Gauge) render(w *strings.Builder, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Histogram is a cumulative histogram over fixed bucket upper bounds
// (exclusive of +Inf, which is implicit). Observations are atomic;
// rendering takes a consistent-enough snapshot for monitoring use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sumBits
}

// sumBits is an atomic float64 accumulator shared by Histogram.
type sumBits struct {
	bits atomic.Uint64
}

func (s *sumBits) add(v float64) {
	for {
		cur := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if s.bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (s *sumBits) value() float64 { return math.Float64frombits(s.bits.Load()) }

// DefaultLatencyBuckets covers 1 ms to ~2 minutes in powers of ~3 —
// wide enough for both in-memory optimizations and scaled simulated
// service time.
var DefaultLatencyBuckets = []float64{
	0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 120,
}

// newHistogram builds a histogram over sorted bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	h.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.value() }

// render implements instrument: cumulative _bucket lines, then _sum
// and _count.
func (h *Histogram) render(w *strings.Builder, name, labels string) {
	base := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	bucketLabels := func(le string) string {
		if base == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", base, le)
	}
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(formatFloat(b)), h.counts[i].Load())
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter returns the named unlabeled counter, registering it on
// first use.
func (m *Metrics) Counter(name, help string) *Counter {
	return m.CounterL(name, help)
}

// CounterL returns the named counter child for a label set rendered
// by Labels (none for the unlabeled child).
func (m *Metrics) CounterL(name, help string, labels ...string) *Counter {
	f := m.lookup(name, help, "counter", nil)
	return f.child(Labels(labels...), func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns the named unlabeled gauge, registering it on first
// use.
func (m *Metrics) Gauge(name, help string) *Gauge {
	return m.GaugeL(name, help)
}

// GaugeL returns the named gauge child for a label set rendered by
// Labels (none for the unlabeled child) — e.g. the per-state fleet
// membership gauges mdq_fleet_workers{state="up"|"suspect"|"down"}.
func (m *Metrics) GaugeL(name, help string, labels ...string) *Gauge {
	f := m.lookup(name, help, "gauge", nil)
	return f.child(Labels(labels...), func() instrument { return &Gauge{} }).(*Gauge)
}

// Histogram returns the named unlabeled histogram over bounds (the
// bounds of the first registration win), registering it on first use.
func (m *Metrics) Histogram(name, help string, bounds []float64) *Histogram {
	return m.HistogramL(name, help, bounds)
}

// HistogramL returns the named histogram child for a label set.
func (m *Metrics) HistogramL(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	f := m.lookup(name, help, "histogram", bounds)
	return f.child(Labels(labels...), func() instrument { return newHistogram(f.bounds) }).(*Histogram)
}

// WriteTo renders the whole registry in Prometheus text exposition
// format, families in registration order, children in creation order.
func (m *Metrics) WriteTo(w *strings.Builder) {
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = m.family[n]
	}
	m.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		kids := make([]instrument, len(keys))
		for i, k := range keys {
			kids[i] = f.kids[k]
		}
		f.mu.Unlock()
		for i, in := range kids {
			in.render(w, f.name, keys[i])
		}
	}
}

// Render returns the exposition text.
func (m *Metrics) Render() string {
	var b strings.Builder
	m.WriteTo(&b)
	return b.String()
}

// Handler serves GET /metrics.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, m.Render())
	})
}

// CountingWriter wraps a ResponseWriter and records the status code
// and body bytes a handler produced, for request metrics. Flush
// passes through, so streaming handlers keep flushing.
type CountingWriter struct {
	http.ResponseWriter
	status int
	// Bytes counts the body bytes written.
	Bytes int64
}

// WriteHeader records the first status written.
func (cw *CountingWriter) WriteHeader(status int) {
	if cw.status == 0 {
		cw.status = status
	}
	cw.ResponseWriter.WriteHeader(status)
}

// Write counts the body bytes; a body without a prior WriteHeader
// implies 200.
func (cw *CountingWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.Bytes += int64(n)
	return n, err
}

// Flush lets streaming handlers keep flushing through the wrapper.
func (cw *CountingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the status the handler produced (200 when it wrote
// nothing, as net/http answers then).
func (cw *CountingWriter) Status() int {
	if cw.status == 0 {
		return http.StatusOK
	}
	return cw.status
}
