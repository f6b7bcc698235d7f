package service

import (
	"context"
	"math"
	"sync"
	"time"

	"mdq/internal/schema"
)

// Observed wraps a service and keeps running statistics over the
// live traffic that flows through it. §5: registration estimates
// are "periodically updated, also taking advantage of subsequent
// invocations" — wrap a service with Observe, register the wrapper,
// and call Refresh whenever the profile should absorb what execution
// has learned.
type Observed struct {
	inner Service

	mu          sync.Mutex
	calls       int64
	fetches     int64
	rows        int64
	elapsed     time.Duration
	maxPageRows int
	sawMore     bool
	// sketches accumulate the values returned per attribute position
	// (full-width rows only), from which Refresh builds per-attribute
	// value distributions. Unlike the scalar counters they are NOT
	// reset per feedback window: distributions improve monotonically
	// with traffic, and a refresh publishes the cumulative picture.
	sketches []*schema.ValueSketch
	// notify is called (outside the lock) after a Refresh that
	// changed the signature's statistics; the registry wires it to
	// BumpEpoch at registration so plan caches learn about the
	// refresh.
	notify func()
}

// Distribution-building defaults for refreshed profiles: a handful of
// most-common values plus a small equi-depth histogram keeps the cost
// model sharp on skew without bloating signatures.
const (
	refreshMCVs    = 8
	refreshBuckets = 8
)

// Observe wraps a service for statistics collection.
func Observe(svc Service) *Observed {
	return &Observed{inner: svc}
}

// Signature implements Service.
func (o *Observed) Signature() *schema.Signature { return o.inner.Signature() }

// Invoke implements Service, recording result sizes and service
// times.
func (o *Observed) Invoke(ctx context.Context, patternIdx int, req Request) (Response, error) {
	resp, err := o.inner.Invoke(ctx, patternIdx, req)
	if err != nil {
		return resp, err
	}
	o.mu.Lock()
	if req.Page == 0 {
		o.calls++
	}
	o.fetches++
	o.rows += int64(len(resp.Rows))
	o.elapsed += resp.Elapsed
	if len(resp.Rows) > o.maxPageRows {
		o.maxPageRows = len(resp.Rows)
	}
	if resp.HasMore {
		o.sawMore = true
	}
	o.observeValuesLocked(resp.Rows)
	o.mu.Unlock()
	return resp, nil
}

// observeValuesLocked feeds full-width result rows into the
// per-attribute value sketches. Rows of unexpected width are skipped:
// only positionally attributable values can sharpen an attribute's
// distribution.
func (o *Observed) observeValuesLocked(rows [][]schema.Value) {
	arity := o.inner.Signature().Arity()
	if arity == 0 {
		return
	}
	if o.sketches == nil {
		o.sketches = make([]*schema.ValueSketch, arity)
		for i := range o.sketches {
			o.sketches[i] = schema.NewValueSketch(0)
		}
	}
	for _, row := range rows {
		if len(row) != arity {
			continue
		}
		for i, v := range row {
			o.sketches[i].Add(v)
		}
	}
}

// Observations returns the raw counters collected so far.
func (o *Observed) Observations() (calls, fetches, rows int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls, o.fetches, o.rows
}

// ObservedStats derives service statistics from the collected
// traffic: erspi as rows per logical invocation, response time as
// mean per request–response, and the chunk size when paging was
// observed. Fields with no evidence keep the registered values.
func (o *Observed) ObservedStats() schema.Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.observedStatsLocked()
}

// observedStatsLocked is ObservedStats with o.mu already held.
func (o *Observed) observedStatsLocked() schema.Stats {
	st := o.inner.Signature().Statistics()
	if o.calls > 0 {
		st.ERSPI = float64(o.rows) / float64(o.calls)
	}
	if o.fetches > 0 {
		st.ResponseTime = o.elapsed / time.Duration(o.fetches)
	}
	if o.sawMore && o.maxPageRows > 0 {
		st.ChunkSize = o.maxPageRows
	}
	// Fold the observed value sketches into per-attribute
	// distributions. The most informative snapshot wins, measured by
	// *distinct* values seen, not raw row counts: row totals would be
	// the wrong yardstick — a hot key queried in a loop accumulates
	// unbounded duplicate rows without learning anything. An Exact
	// distribution (registration-time profiling over the full
	// relation) is only displaced when traffic has seen strictly more
	// distinct values (the relation outgrew the profile); an earlier
	// online snapshot is replaced whenever coverage has not shrunk,
	// so learned frequencies keep tracking traffic. Attributes
	// without traffic keep whatever the registration profiled. Each
	// refresh builds fresh Distribution snapshots (copy-on-write),
	// never mutating the published ones.
	if o.sketches != nil {
		dists := make([]*schema.Distribution, len(o.sketches))
		observed := false
		for i, sk := range o.sketches {
			cur := st.Distribution(i)
			dists[i] = cur
			if sk == nil || sk.Total() <= 0 {
				continue
			}
			built := sk.Build(refreshMCVs, refreshBuckets)
			replace := cur.Empty() ||
				(cur.Exact && built.Distinct > cur.Distinct) ||
				(!cur.Exact && built.Distinct >= cur.Distinct)
			if replace {
				dists[i] = built
				observed = true
			}
		}
		if observed {
			st.Dists = dists
		}
	}
	return st
}

// setNotify installs the refresh callback (the registry's epoch
// bump).
func (o *Observed) setNotify(fn func()) {
	o.mu.Lock()
	o.notify = fn
	o.mu.Unlock()
}

// Refresh publishes the observed statistics as the service's current
// snapshot, so subsequent optimizations use the refined profile (the
// periodic update of §5), and notifies the registry's epoch subsystem
// when the profile actually changed. It reports whether the
// signature's statistics changed.
//
// The publication is an atomic copy-on-write swap
// (schema.Signature.SetStats): statistics stay readable lock-free
// throughout the cost model, and a concurrent optimization never
// observes a half-applied refresh — each read sees one consistent
// snapshot, before or after. The epoch bump that follows the swap
// tells plan caches to invalidate or revalidate entries priced under
// the previous snapshot.
func (o *Observed) Refresh() bool {
	o.mu.Lock()
	observed := o.calls > 0
	st := o.observedStatsLocked()
	notify := o.notify
	o.mu.Unlock()
	if !observed {
		return false
	}
	return o.apply(st, notify)
}

// apply installs refreshed statistics as an atomic snapshot and fires
// the epoch notification when they differ from the current profile.
func (o *Observed) apply(st schema.Stats, notify func()) bool {
	sig := o.inner.Signature()
	if sig.Statistics().Same(st) {
		return false
	}
	sig.SetStats(st)
	if notify != nil {
		notify()
	}
	return true
}

// driftBetween is the largest relative deviation between an observed
// and a registered statistics snapshot: over the scalar profile
// (erspi, response time, chunk size) and over the per-attribute value
// distributions. Distribution drift is summarized by two cheap
// proxies — the relative change in the distinct-value estimate and
// in the most common value's frequency — and a newly learned
// distribution where none existed counts as full (1.0) drift, so a
// MinDrift-gated feedback policy still publishes first-time value
// statistics.
func driftBetween(st, cur schema.Stats) float64 {
	rel := func(got, ref float64) float64 {
		d := math.Abs(got - ref)
		if d == 0 {
			return 0
		}
		if ref == 0 {
			return math.Inf(1)
		}
		return d / math.Abs(ref)
	}
	drift := rel(st.ERSPI, cur.ERSPI)
	drift = math.Max(drift, rel(st.ResponseTime.Seconds(), cur.ResponseTime.Seconds()))
	drift = math.Max(drift, rel(float64(st.ChunkSize), float64(cur.ChunkSize)))
	n := len(st.Dists)
	if len(cur.Dists) > n {
		n = len(cur.Dists)
	}
	topFrac := func(d *schema.Distribution) float64 {
		if len(d.MCVs) > 0 {
			return d.MCVs[0].Frac
		}
		if d.Distinct > 0 {
			return 1 / d.Distinct
		}
		return 0
	}
	for i := 0; i < n; i++ {
		a, b := st.Distribution(i), cur.Distribution(i)
		switch {
		case a.Empty() && b.Empty():
		case a.Empty() != b.Empty():
			drift = math.Max(drift, 1)
		default:
			drift = math.Max(drift, rel(a.Distinct, b.Distinct))
			drift = math.Max(drift, rel(topFrac(a), topFrac(b)))
		}
	}
	return drift
}

// FeedbackPolicy gates the runtime feedback loop: after a plan
// execution the runner offers each observed service a refresh, which
// is taken only when enough traffic accumulated and the profile
// drifted enough to matter. The zero value refreshes after every
// observed call, on any change.
type FeedbackPolicy struct {
	// MinCalls is the number of observed logical invocations required
	// before a refresh is considered (≤ 1 means every run).
	MinCalls int64
	// MinDrift is the relative statistics deviation (the largest
	// relative change across erspi, response time, chunk size and the
	// value distributions) required before a refresh is taken; 0
	// refreshes on any change.
	MinDrift float64
}

// MaybeRefresh applies the policy: when the observation window is
// large enough and has drifted enough, the profile is refreshed and
// the window reset so the next decision sees fresh traffic. The
// snapshot and the reset happen under one lock acquisition, so
// observations arriving concurrently land in the next window instead
// of being silently discarded between them. It reports whether the
// profile changed.
func (o *Observed) MaybeRefresh(pol FeedbackPolicy) bool {
	min := pol.MinCalls
	if min < 1 {
		min = 1
	}
	o.mu.Lock()
	if o.calls < min {
		o.mu.Unlock()
		return false
	}
	st := o.observedStatsLocked()
	if pol.MinDrift > 0 && driftBetween(st, o.inner.Signature().Statistics()) < pol.MinDrift {
		o.mu.Unlock()
		return false
	}
	notify := o.notify
	o.resetLocked()
	o.mu.Unlock()
	return o.apply(st, notify)
}

// Reset clears the collected counters (e.g. after a Refresh, to
// observe a fresh window).
func (o *Observed) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.resetLocked()
}

func (o *Observed) resetLocked() {
	o.calls, o.fetches, o.rows, o.elapsed = 0, 0, 0, 0
	o.maxPageRows, o.sawMore = 0, false
}
