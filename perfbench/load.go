package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: callers that each wait for
// their reply, like an application front end with a small connection
// pool, sized to the 2 CPUs the benchmark was tuned on.
const clients = 2

// queryResponse is the part of a /query response the benchmark reads.
type queryResponse struct {
	Error       string     `json:"error"`
	Rows        [][]string `json:"rows"`
	Cached      bool       `json:"cached"`
	TemplateHit bool       `json:"template_hit"`
	Revalidated bool       `json:"revalidated"`
}

// loadResult is what the timed window observed from the client side.
type loadResult struct {
	attempted, ok, errors, shed, wrong int
	latencies                          []float64 // ms, successful requests
	// window is the time from the window's start to the last reply;
	// clientTime sums, over the clients, the time from the start to
	// each client's own last reply, so that a client idle while the
	// other finishes the last request does not count.
	window, clientTime time.Duration
	// Serve classes of successful requests, and the rows they returned.
	miss, revalidated, rows, empty int
	firstErr                       string
}

func (r *loadResult) failed() int { return r.errors + r.shed + r.wrong }

// add pools another window's observations into r.
func (r *loadResult) add(o *loadResult) {
	r.attempted += o.attempted
	r.ok += o.ok
	r.errors += o.errors
	r.shed += o.shed
	r.wrong += o.wrong
	r.latencies = append(r.latencies, o.latencies...)
	r.window += o.window
	r.clientTime += o.clientTime
	r.miss += o.miss
	r.revalidated += o.revalidated
	r.rows += o.rows
	r.empty += o.empty
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// newHTTPClient keeps one idle connection per client slot.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// post sends one request and checks the answer against its reference.
// It returns the decoded response and whether the answer check failed.
func post(client *http.Client, base string, body []byte, set *answerSet) (*queryResponse, int, error) {
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &qr, resp.StatusCode, fmt.Errorf("POST /query: %s: %s", resp.Status, qr.Error)
	}
	return &qr, resp.StatusCode, nil
}

// warmup sends the warm-up requests, each once, from the client slots.
// It returns how many answers failed the check, and the first failure
// of any kind.
func warmup(client *http.Client, base string, wl *Workload, ref *reference) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(wl.Warmup))
	wrong := make([]bool, len(wl.Warmup))
	var next atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(wl.Warmup) {
					return
				}
				body, _ := json.Marshal(wl.Warmup[i]) // Request always marshals
				qr, _, err := post(client, base, body, ref.warm[i])
				if err == nil {
					err = ref.warm[i].check(qr.Rows)
					wrong[i] = err != nil
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	n := 0
	var first error
	for i, err := range errs {
		if wrong[i] {
			n++
		}
		if err != nil && first == nil {
			first = fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return n, first
}

// drive runs the closed loop: clients draw the next request of the
// sequence, from position from on, send it and wait for the reply,
// until the issue window closes. Every request issued inside the window
// runs to completion and counts; the window reported ends at the last
// completion. It returns the next unsent sequence position.
func drive(client *http.Client, base string, wl *Workload, ref *reference, bodies [][]byte, from int, d time.Duration) (*loadResult, int) {
	res := &loadResult{}
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(from))
	t0 := time.Now()
	stopIssuing := t0.Add(d)
	var last time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := t0
			defer func() {
				mu.Lock()
				res.clientTime += mine.Sub(t0)
				mu.Unlock()
			}()
			for time.Now().Before(stopIssuing) {
				n := int(next.Add(1)) - 1
				if n >= len(wl.Seq) {
					return
				}
				i := wl.Seq[n]
				start := time.Now()
				qr, status, err := post(client, base, bodies[i], ref.sets[i])
				elapsed := time.Since(start)
				var checkErr error
				if err == nil {
					checkErr = ref.sets[i].check(qr.Rows)
				}
				end := time.Now()
				mine = end
				mu.Lock()
				res.attempted++
				if end.After(last) {
					last = end
				}
				switch {
				case err != nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable):
					res.shed++
				case err != nil:
					res.errors++
				case checkErr != nil:
					res.wrong++
					err = checkErr
				default:
					res.ok++
					res.latencies = append(res.latencies, float64(elapsed)/float64(time.Millisecond))
					if !qr.Cached && !qr.TemplateHit {
						res.miss++
					}
					if qr.Revalidated {
						res.revalidated++
					}
					res.rows += len(qr.Rows)
					if len(qr.Rows) == 0 {
						res.empty++
					}
				}
				if err != nil && res.firstErr == "" {
					res.firstErr = fmt.Sprintf("request %d: %v", n, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.window = last.Sub(t0)
	return res, min(int(next.Load()), len(wl.Seq))
}
