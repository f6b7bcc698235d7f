package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark launched.
type proc struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches a server binary on a fresh loopback port, with its
// output in logDir.
func start(name, bin string, args []string, logDir string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the server is told
	// to shut down rather than left running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once the benchmark stops it
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM to the process (by PID), waits for it to exit,
// and kills it if it has not exited within the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// probeClient is used for readiness polls and metric scrapes.
var probeClient = &http.Client{Timeout: 5 * time.Second}

// waitReady polls until ok reports true for the process, or the
// deadline passes.
func waitReady(ctx context.Context, p *proc, ok func(p *proc) bool) error {
	for {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		}
		if ok(p) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// answers reports whether the process serves GET /metrics.
func answers(p *proc) bool {
	resp, err := probeClient.Get(p.base + "/metrics")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fleetUp reports whether a coordinator sees n workers up.
func fleetUp(n int) func(p *proc) bool {
	return func(p *proc) bool {
		resp, err := probeClient.Get(p.base + "/fleet")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var f struct {
			Workers []struct {
				State string `json:"state"`
			} `json:"workers"`
		}
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&f) != nil {
			return false
		}
		up := 0
		for _, w := range f.Workers {
			if w.State == "up" {
				up++
			}
		}
		return up == n
	}
}

// cluster is the set of server processes of one workload.
type cluster struct {
	procs []*proc
	// front is the process clients send /query to.
	front *proc
}

func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

// launch starts the workload's servers and returns once every one
// answers and, in a fleet, the coordinator sees every worker up. The
// workers start first: a coordinator discovers which services each
// worker hosts once, at start-up.
func launch(wl *Workload, binDir, logDir string) (*cluster, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	c := &cluster{}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	var urls []string
	for i := 0; i < wl.Workers; i++ {
		p, err := start(fmt.Sprintf("mdqworker-%d", i+1), filepath.Join(binDir, "mdqworker"), serverArgs(wl), logDir)
		if err != nil {
			return fail(err)
		}
		c.procs = append(c.procs, p)
		urls = append(urls, p.base)
	}
	for _, p := range c.procs {
		if err := waitReady(ctx, p, answers); err != nil {
			return fail(err)
		}
	}
	args := serverArgs(wl)
	if len(urls) > 0 {
		args = append(args, "-workers", strings.Join(urls, ","))
	}
	front, err := start("mdqserve", filepath.Join(binDir, "mdqserve"), args, logDir)
	if err != nil {
		return fail(err)
	}
	c.procs = append(c.procs, front)
	c.front = front
	if err := waitReady(ctx, front, answers); err != nil {
		return fail(err)
	}
	if wl.Workers > 0 {
		if err := waitReady(ctx, front, fleetUp(wl.Workers)); err != nil {
			return fail(err)
		}
	}
	return c, time.Since(t0), nil
}

// serverArgs are the flags every server process gets: the workload's
// world, sequential search (see searchParallelism) and, where the
// workload says so, no execution feedback; everything else stays at its
// default.
func serverArgs(wl *Workload) []string {
	args := []string{"-world", wl.World, "-parallel", strconv.Itoa(searchParallelism)}
	if wl.NoFeedback {
		args = append(args, "-feedback=false")
	}
	return args
}

// cpuTicks reads utime+stime of a process from /proc/<pid>/stat, in
// clock ticks.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return u + st, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 100

// vmRSS reads the resident set size of a process in kB.
func vmRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// sample is one reading of a cluster's processes.
type sample struct {
	ticks   int64
	metrics []map[string]float64 // per process, index-aligned with procs
}

func (c *cluster) sample() (sample, error) {
	var s sample
	for _, p := range c.procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.ticks += t
		m, err := scrape(p.base)
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// rss sums VmRSS over the cluster, in MB.
func (c *cluster) rss() (float64, error) {
	var kb int64
	for _, p := range c.procs {
		v, err := vmRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// sampleRSS reads the cluster's RSS every interval until stop is
// closed, then returns the readings.
func (c *cluster) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if v, err := c.rss(); err == nil {
			out = append(out, v)
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// scrape reads a Prometheus text exposition into series → value.
func scrape(base string) (map[string]float64, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta sums, over the processes selected by pick, the growth of every
// series whose name matches name and whose labels contain all of
// labels (e.g. `event="hit"`).
func delta(before, after sample, pick func(i int) bool, name string, labels ...string) float64 {
	var sum float64
	for i := range after.metrics {
		if !pick(i) {
			continue
		}
		for series, v := range after.metrics[i] {
			if !seriesMatches(series, name, labels) {
				continue
			}
			sum += v - before.metrics[i][series]
		}
	}
	return sum
}

func seriesMatches(series, name string, labels []string) bool {
	rest, ok := strings.CutPrefix(series, name)
	if !ok || (rest != "" && rest[0] != '{') {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(rest, l) {
			return false
		}
	}
	return true
}
