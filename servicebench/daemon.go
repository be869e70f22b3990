package main

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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cprd process started by the benchmark. Every daemon is
// stopped (and waited for) by stop before the benchmark exits.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	state   string
	logDone chan struct{}
	setup   time.Duration
}

// startDaemon execs cprd with a fresh state directory and the workload's
// flags, and returns once GET /readyz answers 200. setup is the time from
// exec to that first 200.
func startDaemon(ctx context.Context, bin, state, logPath string, flags []string) (*daemon, error) {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-state", state, "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cprd: %w", err)
	}
	d := &daemon{cmd: cmd, state: state, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sent {
				if _, rest, ok := strings.Cut(line, " listening on "); ok {
					addrCh <- strings.TrimSuffix(strings.Fields(rest)[0], ",")
					sent = true
				}
			}
		}
		// Drain anything past a scanner error so the daemon never blocks
		// on a full stderr pipe.
		_, _ = io.Copy(logf, stderr)
	}()

	select {
	case d.addr = <-addrCh:
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("cprd exited before listening; see %s", logPath)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("cprd did not report its listen address within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, errors.New("cprd never became ready")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (which also finalizes a
// -cpuprofile) and waits for it to exit, killing it after a grace period.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	err := d.cmd.Wait()
	// cprd answers /readyz before it installs its SIGTERM handler, so a
	// daemon stopped right after start-up may die of the signal itself
	// instead of draining; that is still a clean stop of an idle daemon.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cprd exit: %w", err)
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}

// procSample is the daemon's cumulative resource use as /proc reports it.
type procSample struct {
	cpuTicks     int64 // user+sys of the daemon, reaped children and live children
	wchar, syscw int64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	self, err := statCPU(pid)
	if err != nil {
		return s, err
	}
	s.cpuTicks = self
	for _, c := range children(pid) {
		if t, err := statCPU(c); err == nil {
			s.cpuTicks += t
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	s.wchar = procField(string(b), "wchar:")
	s.syscw = procField(string(b), "syscw:")
	return s, nil
}

// statCPU returns utime+stime+cutime+cstime: the process's own CPU plus
// that of the children it has waited for, such as finished shard workers.
func statCPU(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 15 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var sum int64
	for _, k := range []int{11, 12, 13, 14} { // fields 14-17
		v, err := strconv.ParseInt(f[k], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// children lists the live child processes of pid (shard workers).
func children(pid int) []int {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", pid))
	var out []int
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if c, err := strconv.Atoi(f); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// procField returns the integer after key in a /proc key-value file, 0 if
// absent.
func procField(text, key string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return v
		}
	}
	return 0
}

// hwmKB is a process's peak resident set size in KiB (VmHWM).
func hwmKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return procField(string(b), "VmHWM:")
}

// rssPeak tracks the peak resident memory of the daemon plus its shard
// workers: the daemon's own VmHWM plus the largest sum of live workers'
// VmHWM seen by a sampler polling every 50ms. Workers live only for one
// job attempt, so sampling is the only way to see them.
type rssPeak struct {
	pid     int
	stop    chan struct{}
	done    chan struct{}
	workers int64
}

func watchRSS(pid int) *rssPeak {
	r := &rssPeak{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			var sum int64
			for _, c := range children(pid) {
				sum += hwmKB(c)
			}
			if sum > r.workers {
				r.workers = sum
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the peak in MiB. Call it while the
// daemon is still running.
func (r *rssPeak) peakMB() float64 {
	close(r.stop)
	<-r.done
	return float64(hwmKB(r.pid)+r.workers) / 1024
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, ierr := e.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
