package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child processes run in their own process groups, and every group is
// registered here, so that any exit path (normal, error, signal) can
// kill whatever is still alive: a benchmark that leaves an mvpearsd
// behind poisons the next run's CPU numbers.
var groups = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

func startGroup(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	groups.Lock()
	groups.pgids[cmd.Process.Pid] = true
	groups.Unlock()
	return nil
}

// groupAlive reports whether any process of the group still exists.
func groupAlive(pgid int) bool { return syscall.Kill(-pgid, 0) == nil }

// killGroup kills the whole group and waits until it is gone. The
// leader is reaped by its owner's cmd.Wait; orphaned members are
// reparented to init, so polling for ESRCH is the only portable wait.
func killGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH: already gone
	for i := 0; i < 500 && groupAlive(pgid); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	groups.Lock()
	delete(groups.pgids, pgid)
	groups.Unlock()
}

// killAllGroups is the last-resort cleanup for signal and error exits.
func killAllGroups() {
	groups.Lock()
	var pgids []int
	for p := range groups.pgids {
		pgids = append(pgids, p)
	}
	groups.Unlock()
	for _, p := range pgids {
		killGroup(p)
	}
}

// leakedGroups lists registered groups that still have live members.
func leakedGroups() []int {
	groups.Lock()
	defer groups.Unlock()
	var out []int
	for p := range groups.pgids {
		if groupAlive(p) {
			out = append(out, p)
		}
	}
	return out
}

// probeClient talks to /readyz, /metrics and the admin listener. It is
// separate from the load client so that probes never occupy one of the
// two load connections.
var probeClient = &http.Client{Timeout: 5 * time.Second}

// daemon is one running mvpearsd.
type daemon struct {
	cmd         *exec.Cmd
	base, admin string // http://127.0.0.1:port
	bootSeconds float64
	stderrPath  string
	done        chan error
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with the benchmark's fixed flags plus extra,
// and returns once /readyz answers 200. bootSeconds is exec -> ready.
// readyTimeout covers a cold -bootstrap (about 10 s of training).
func startDaemon(bin, dir, model string, extra []string, readyTimeout time.Duration) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:       fmt.Sprintf("http://127.0.0.1:%d", port),
		admin:      fmt.Sprintf("http://127.0.0.1:%d", adminPort),
		stderrPath: filepath.Join(dir, "mvpearsd.stderr"),
		done:       make(chan error, 1),
	}
	stderr, err := os.Create(d.stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor
	args := append([]string{
		"-model", model,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-admin-addr", fmt.Sprintf("127.0.0.1:%d", adminPort),
		"-audit", filepath.Join(dir, "audit.jsonl"),
	}, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = stderr
	d.cmd.Dir = dir
	start := time.Now()
	if err := startGroup(d.cmd); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	for time.Since(start) < readyTimeout {
		select {
		case err := <-d.done:
			killGroup(d.cmd.Process.Pid)
			return nil, fmt.Errorf("mvpearsd exited before ready: %v\n%s", err, d.stderrTail())
		default:
		}
		resp, err := probeClient.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootSeconds = time.Since(start).Seconds()
				return d, nil
			}
		}
		// A default boot takes about 7 ms, so the poll must be much finer
		// than that for boot time to mean anything.
		time.Sleep(100 * time.Microsecond)
	}
	killGroup(d.cmd.Process.Pid)
	<-d.done
	return nil, fmt.Errorf("mvpearsd not ready after %v\n%s", readyTimeout, d.stderrTail())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderrTail() string {
	b, err := os.ReadFile(d.stderrPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop drains the daemon with SIGTERM and requires a clean exit; a
// daemon that will not go within 10 s is killed with its group.
func (d *daemon) stop() error {
	defer killGroup(d.pid())
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling mvpearsd: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("mvpearsd exit: %w\n%s", err, d.stderrTail())
		}
		return nil
	case <-time.After(10 * time.Second):
		killGroup(d.pid())
		<-d.done
		return errors.New("mvpearsd did not drain within 10s of SIGTERM")
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds reads the daemon's user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in %q", stat)
	}
	return float64(utime+stime) / clockTick, nil
}

// rssPeakMB reads VmHWM, the daemon's peak resident set.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func get(url string) ([]byte, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// counters is one /metrics scrape: sample line (name plus labels) -> value.
type counters map[string]float64

func (d *daemon) scrape() (counters, error) {
	b, err := get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(b), nil
}

func parseMetrics(text []byte) counters {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every sample whose line starts with prefix, which selects a
// family or a family plus its leading labels.
func (c counters) sum(prefix string) float64 {
	var s float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// detectRoutes are the routes whose finished-request counts must
// reconcile with what the load generator sent.
var detectRoutes = []string{"detect", "detect_batch", "detect_stream"}

func (c counters) detectRequests() float64 {
	var s float64
	for _, r := range detectRoutes {
		s += c.sum(`mvpears_requests_total{route="` + r + `",`)
	}
	return s
}

// memStats is the runtime.MemStats block that the admin listener's
// /debug/pprof/heap?debug=1 prints, plus the goroutine count.
type memStats struct {
	mallocs, totalAlloc, heapInuse float64
	numGC                          float64
	pauseNs                        []float64 // circular, entry (n+255)%256 is GC n
	goroutines                     float64
}

func (d *daemon) memStats() (memStats, error) {
	b, err := get(d.admin + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	ms, err := parseMemStats(b)
	if err != nil {
		return ms, err
	}
	g, err := get(d.admin + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return ms, err
	}
	// First line: "goroutine profile: total N".
	line, _, _ := strings.Cut(string(g), "\n")
	n, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
	if err != nil {
		return ms, fmt.Errorf("malformed goroutine profile header %q", line)
	}
	ms.goroutines = n
	return ms, nil
}

func parseMemStats(text []byte) (memStats, error) {
	var ms memStats
	seen := 0
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		key, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		num := func(dst *float64) {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				*dst = v
				seen++
			}
		}
		switch key {
		case "Mallocs":
			num(&ms.mallocs)
		case "TotalAlloc":
			num(&ms.totalAlloc)
		case "HeapInuse":
			num(&ms.heapInuse)
		case "NumGC":
			num(&ms.numGC)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return ms, fmt.Errorf("malformed PauseNs entry %q", f)
				}
				ms.pauseNs = append(ms.pauseNs, v)
			}
			seen++
		}
	}
	if seen != 5 {
		return ms, fmt.Errorf("heap profile lacks the MemStats block (%d of 5 fields)", seen)
	}
	return ms, nil
}

// gcPauseMS is the stop-the-world time of the GC cycles between two
// snapshots. MemStats keeps only the last 256 pauses; when more cycles
// ran, the 256 kept are scaled up to the cycle count.
func gcPauseMS(before, after memStats) float64 {
	cycles := int(after.numGC - before.numGC)
	if cycles <= 0 || len(after.pauseNs) == 0 {
		return 0
	}
	kept := min(cycles, len(after.pauseNs))
	var ns float64
	for i := 0; i < kept; i++ {
		n := int(after.numGC) - i // GC numbers count from 1
		ns += after.pauseNs[(n+len(after.pauseNs)-1)%len(after.pauseNs)]
	}
	return ns * float64(cycles) / float64(kept) / 1e6
}
