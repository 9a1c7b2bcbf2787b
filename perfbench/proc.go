package main

// Server processes: the unmodified msserve and msrouter binaries, each
// started on an ephemeral loopback port whose address is read from the
// process's own start-up log line.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type proc struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startProc launches bin with args plus -addr 127.0.0.1:0, copies its
// stderr to dir/<name>.log and returns once the process logged the
// line containing marker ("... on <addr>").
func startProc(bin, name, dir, marker string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = dir
	// A server outlives no driver, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sent && strings.Contains(line, marker) {
				if i := strings.LastIndex(line, " on "); i >= 0 {
					addr <- strings.TrimSpace(line[i+4:])
					sent = true
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-copied // Wait closes the pipe: drain it first
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up: %v (see %s.log)", name, p.err, name)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", name)
	}
}

// stop sends SIGTERM, waits for a graceful drain and kills the
// process if it outlives the grace period. It returns once the
// process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by done
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// statusKB reads one "Key: value kB" field of /proc/<pid>/status.
func (p *proc) statusKB(key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s in /proc status", p.name, key)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	kb, err := p.statusKB("VmHWM")
	return kb / 1024, err
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on Linux.
const clockTicks = 100

// cpuSeconds is the process's user plus system CPU time so far.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// waitReady polls GET path on base until it answers 200.
func waitReady(ctx context.Context, c *http.Client, base, path string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s%s not ready: %w", base, path, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fleet is one set of running server processes.
type fleet struct {
	procs []*proc
}

func (f *fleet) stop() {
	for _, p := range f.procs {
		p.stop()
	}
}

// peakRSSMB sums VmHWM over the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range f.procs {
		v, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// meter samples the fleet's CPU time across a measured phase, and
// every 100 ms the machine's CPU ticks the hypervisor stole.
type meter struct {
	f     *fleet
	cpu0  float64
	quit  chan struct{}
	done  chan struct{}
	ticks []tickSample // written by the sampler until done
}

type tickSample struct {
	at         time.Time
	steal, all float64
}

func startMeter(f *fleet) (*meter, error) {
	m := &meter{f: f, quit: make(chan struct{}), done: make(chan struct{})}
	var err error
	if m.cpu0, err = f.cpuSeconds(); err != nil {
		return nil, err
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			steal, all := machineTicks()
			m.ticks = append(m.ticks, tickSample{time.Now(), steal, all})
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
		}
	}()
	return m, nil
}

// stop ends the sampling and returns the fleet's CPU seconds over the
// phase.
func (m *meter) stop() (float64, error) {
	close(m.quit)
	<-m.done
	steal, all := machineTicks()
	m.ticks = append(m.ticks, tickSample{time.Now(), steal, all})
	cpu1, err := m.f.cpuSeconds()
	return cpu1 - m.cpu0, err
}

// stolen is the share of the machine's CPU time stolen between the
// samples nearest to t0 and t1 (0 where /proc/stat has no steal).
func (m *meter) stolen(t0, t1 time.Time) float64 {
	if len(m.ticks) == 0 {
		return 0
	}
	a := sort.Search(len(m.ticks), func(i int) bool { return !m.ticks[i].at.Before(t0) })
	b := sort.Search(len(m.ticks), func(i int) bool { return m.ticks[i].at.After(t1) }) - 1
	a, b = min(a, len(m.ticks)-1), max(b, 0)
	if b <= a || m.ticks[b].all <= m.ticks[a].all {
		return 0
	}
	return (m.ticks[b].steal - m.ticks[a].steal) / (m.ticks[b].all - m.ticks[a].all)
}

// stealWindows is the sampler's record of stolen CPU time: window i
// begins at at[i], ends where the next begins, and lost share[i] of the
// machine's CPU time to the hypervisor.
type stealWindows struct {
	at    []time.Time
	share []float64
}

// windows returns the sampler's windows, one between each two samples.
func (m *meter) windows() stealWindows {
	var w stealWindows
	for i := 1; i < len(m.ticks); i++ {
		a, b := m.ticks[i-1], m.ticks[i]
		share := 0.0
		if b.all > a.all {
			share = (b.steal - a.steal) / (b.all - a.all)
		}
		w.at = append(w.at, a.at)
		w.share = append(w.share, share)
	}
	return w
}

// of returns the stolen share of the window holding t; a time outside
// the sampled span takes the nearest window. There must be a window.
func (w stealWindows) of(t time.Time) float64 {
	i := sort.Search(len(w.at), func(i int) bool { return w.at[i].After(t) }) - 1
	return w.share[min(max(i, 0), len(w.share)-1)]
}

func (w stealWindows) raw(start time.Time) rawSteal {
	at := make([]float64, len(w.at))
	for i, t := range w.at {
		at[i] = t.Sub(start).Seconds()
	}
	return rawSteal{AtS: at, Share: w.share}
}

// machineTicks reads the stolen and total CPU ticks of /proc/stat.
func machineTicks() (steal, all float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		all += v
		if i == 8 {
			steal = v
		}
	}
	return steal, all
}

func (f *fleet) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, p := range f.procs {
		v, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
