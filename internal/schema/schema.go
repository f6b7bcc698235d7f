// Package schema models the information sources of a multi-domain
// query: web service signatures with access patterns, abstract
// domains, and the per-service statistics (erspi, response time,
// chunk size, decay) that drive optimization.
//
// It corresponds to §2.1 and §3.1 of Braga et al., "Optimization of
// Multi-Domain Queries on the Web" (VLDB 2008). A service signature
// has the form
//
//	sα(A1, ..., An)
//
// where each Ai is an abstract domain and α is a set of feasible
// access patterns, each a string over {i, o} indicating which
// arguments are input (must be bound to call the service) and which
// are output (returned by the service).
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Mode says whether an argument position is an input or an output of
// a service under a given access pattern.
type Mode byte

const (
	// In marks an argument that must be bound before invocation.
	In Mode = 'i'
	// Out marks an argument produced by the service.
	Out Mode = 'o'
)

// AccessPattern is a sequence of modes, one per argument of a service
// signature. The k-th argument is an input argument if the k-th mode
// is In, an output argument otherwise (§3.1).
type AccessPattern []Mode

// ParsePattern converts a string such as "ioo" into an AccessPattern.
func ParsePattern(s string) (AccessPattern, error) {
	p := make(AccessPattern, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'i', 'I':
			p[i] = In
		case 'o', 'O':
			p[i] = Out
		default:
			return nil, fmt.Errorf("schema: invalid access pattern %q: byte %d is %q, want 'i' or 'o'", s, i, s[i])
		}
	}
	return p, nil
}

// MustPattern is ParsePattern that panics on malformed input. It is
// intended for statically known patterns in tests and examples.
func MustPattern(s string) AccessPattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the pattern in the paper's "ioo…" notation.
func (p AccessPattern) String() string {
	b := make([]byte, len(p))
	for i, m := range p {
		b[i] = byte(m)
	}
	return string(b)
}

// Inputs returns the indexes of the input arguments.
func (p AccessPattern) Inputs() []int {
	var idx []int
	for i, m := range p {
		if m == In {
			idx = append(idx, i)
		}
	}
	return idx
}

// Outputs returns the indexes of the output arguments.
func (p AccessPattern) Outputs() []int {
	var idx []int
	for i, m := range p {
		if m == Out {
			idx = append(idx, i)
		}
	}
	return idx
}

// Equal reports whether two patterns have the same modes.
func (p AccessPattern) Equal(q AccessPattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// MoreCogent reports whether p ⊒IO q, i.e. every field marked as
// input in q is also marked as input in p (§4.1.1, "bound is
// better"). The relation is a partial order; patterns of different
// arity are incomparable.
func (p AccessPattern) MoreCogent(q AccessPattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range q {
		if q[i] == In && p[i] != In {
			return false
		}
	}
	return true
}

// StrictlyMoreCogent reports p ≻IO q: p ⊒IO q and not q ⊒IO p.
func (p AccessPattern) StrictlyMoreCogent(q AccessPattern) bool {
	return p.MoreCogent(q) && !q.MoreCogent(p)
}

// Kind classifies a service as exact or search (§2.1).
type Kind int

const (
	// Exact services return a single tuple or an unranked set.
	Exact Kind = iota
	// Search services return tuples in ranking order, according to
	// an opaque measure of relevance.
	Search
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Search:
		return "search"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stats carries the profiled characteristics of a service used by the
// cost model (§3.1 notation: ξ, τ, cs, d).
type Stats struct {
	// ERSPI is ξ, the expected result size per invocation: the
	// average number of tuples produced by one invocation. Services
	// with ERSPI > 1 are proliferative, with 0 < ERSPI < 1 selective.
	// For chunked services ERSPI is not used to size results (the
	// fetch schedule is), but it still characterizes the underlying
	// relation.
	ERSPI float64
	// ResponseTime is τ, the average time of one request–response.
	ResponseTime time.Duration
	// ChunkSize is cs: tuples returned by each fetch. Zero means the
	// service is bulk (all results in a single request).
	ChunkSize int
	// Decay is d: the number of tuples after which ranking is known
	// to fall below the threshold of interest. Zero means unknown.
	// It upper-bounds useful fetches at ceil(d/cs) (§4.3.2).
	Decay int
	// CostPerCall is m(n), the abstract per-invocation cost charged
	// under the sum cost metric. The request–response metric fixes
	// it to 1.
	CostPerCall float64
	// Dists holds the per-attribute value distributions, indexed by
	// argument position; nil (or a nil element) means no value
	// statistics for that attribute and the estimator falls back to
	// the uniform model over the domain's distinct count. Entries are
	// immutable Distribution snapshots swapped whole on refresh
	// (copy-on-write), so the cost model reads them lock-free.
	Dists []*Distribution
}

// Distribution returns the value distribution of the i-th attribute,
// or nil when none is known (out-of-range indexes included).
func (s Stats) Distribution(i int) *Distribution {
	if i < 0 || i >= len(s.Dists) {
		return nil
	}
	return s.Dists[i]
}

// Same reports whether two statistics snapshots are equivalent: equal
// scalar profile fields and matching per-attribute distributions. It
// replaces plain struct equality, which the Dists slice rules out.
func (s Stats) Same(t Stats) bool {
	if s.ERSPI != t.ERSPI || s.ResponseTime != t.ResponseTime ||
		s.ChunkSize != t.ChunkSize || s.Decay != t.Decay || s.CostPerCall != t.CostPerCall {
		return false
	}
	n := len(s.Dists)
	if len(t.Dists) > n {
		n = len(t.Dists)
	}
	for i := 0; i < n; i++ {
		if !SameDistribution(s.Distribution(i), t.Distribution(i)) {
			return false
		}
	}
	return true
}

// Chunked reports whether the service pages its results.
func (s Stats) Chunked() bool { return s.ChunkSize > 0 }

// Proliferative reports ξ > 1 (§2.1, after [16]).
func (s Stats) Proliferative() bool { return s.ERSPI > 1 }

// Selective reports 0 ≤ ξ ≤ 1.
func (s Stats) Selective() bool { return s.ERSPI <= 1 }

// MaxFetches returns the fetch upper bound implied by the decay, or 0
// if no decay is known (§4.3.2: after d/cs fetches no relevant data).
func (s Stats) MaxFetches() int {
	if s.Decay <= 0 || s.ChunkSize <= 0 {
		return 0
	}
	return (s.Decay + s.ChunkSize - 1) / s.ChunkSize
}

// Attribute is one argument position of a service signature: a name
// (for readability; the paper uses positional notation) and an
// abstract domain.
type Attribute struct {
	Name   string
	Domain Domain
}

// Signature describes a service: name, typed argument list, feasible
// access patterns, kind, and statistics.
//
// The Stats field holds the registration-time statistics and may be
// filled (or adjusted) freely while the signature is still private to
// one goroutine. Once the service is registered and concurrent
// optimizations may be reading it, statistics change only through
// SetStats, which publishes a whole immutable snapshot atomically
// (copy-on-write); Statistics returns the current snapshot. Readers
// therefore never observe a half-applied refresh — a mix of old and
// new scalar fields, or a Dists slice header from a different
// generation than the scalars next to it.
type Signature struct {
	Name     string
	Attrs    []Attribute
	Patterns []AccessPattern
	Kind     Kind
	Stats    Stats

	// snap, when non-nil, is the current statistics snapshot installed
	// by SetStats; it supersedes the Stats field. Snapshots are
	// immutable after publication.
	snap atomic.Pointer[Stats]
}

// Statistics returns the current statistics of the service: the last
// snapshot published by SetStats, or the registration-time Stats
// field before any refresh. The returned value is a consistent whole
// — every field comes from the same snapshot — and is safe to read
// concurrently with SetStats.
func (s *Signature) Statistics() Stats {
	if p := s.snap.Load(); p != nil {
		return *p
	}
	return s.Stats
}

// SetStats publishes a new statistics snapshot atomically. The caller
// must not mutate st (or anything reachable from st.Dists) after the
// call: concurrent readers hold references to it. Refresh paths
// (service.Observed, value profiling) funnel through here so the cost
// model can keep reading statistics lock-free.
func (s *Signature) SetStats(st Stats) {
	s.snap.Store(&st)
}

// Arity returns the number of arguments.
func (s *Signature) Arity() int { return len(s.Attrs) }

// Pattern returns the i-th feasible access pattern.
func (s *Signature) Pattern(i int) AccessPattern { return s.Patterns[i] }

// Validate checks structural consistency: non-empty name, at least
// one pattern, every pattern of the right arity, chunked search
// services have positive chunk size.
func (s *Signature) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: signature with empty name")
	}
	if len(s.Patterns) == 0 {
		return fmt.Errorf("schema: service %s has no feasible access pattern", s.Name)
	}
	for i, p := range s.Patterns {
		if len(p) != len(s.Attrs) {
			return fmt.Errorf("schema: service %s pattern %d has arity %d, want %d", s.Name, i, len(p), len(s.Attrs))
		}
		for j := i + 1; j < len(s.Patterns); j++ {
			if p.Equal(s.Patterns[j]) {
				return fmt.Errorf("schema: service %s has duplicate pattern %s", s.Name, p)
			}
		}
	}
	if s.Stats.ChunkSize < 0 {
		return fmt.Errorf("schema: service %s has negative chunk size", s.Name)
	}
	if s.Stats.ERSPI < 0 {
		return fmt.Errorf("schema: service %s has negative erspi", s.Name)
	}
	seen := map[string]bool{}
	for _, a := range s.Attrs {
		if a.Name != "" && seen[a.Name] {
			return fmt.Errorf("schema: service %s has duplicate attribute %q", s.Name, a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// String renders the signature in the paper's notation, e.g.
// conf{ioooo,ooooi}(Topic, Name, Start, End, City).
func (s *Signature) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, p := range s.Patterns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteString("}(")
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// Schema is a set of signatures for different services (§3.1).
type Schema struct {
	byName map[string]*Signature
}

// NewSchema builds a schema from signatures, validating each and
// rejecting duplicates.
func NewSchema(sigs ...*Signature) (*Schema, error) {
	s := &Schema{byName: make(map[string]*Signature, len(sigs))}
	for _, sig := range sigs {
		if err := s.Add(sig); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add registers a signature.
func (s *Schema) Add(sig *Signature) error {
	if err := sig.Validate(); err != nil {
		return err
	}
	if _, dup := s.byName[sig.Name]; dup {
		return fmt.Errorf("schema: duplicate service %s", sig.Name)
	}
	s.byName[sig.Name] = sig
	return nil
}

// Lookup returns the signature for a service name.
func (s *Schema) Lookup(name string) (*Signature, bool) {
	sig, ok := s.byName[name]
	return sig, ok
}

// Services returns all signatures sorted by name.
func (s *Schema) Services() []*Signature {
	out := make([]*Signature, 0, len(s.byName))
	for _, sig := range s.byName {
		out = append(out, sig)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered services.
func (s *Schema) Len() int { return len(s.byName) }
