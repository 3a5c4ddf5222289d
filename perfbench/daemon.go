package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one isegend child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// setup is the time from exec to the first /healthz 200.
	setup time.Duration
	done  chan error
}

// startDaemon execs isegend on a free loopback port with default flags plus
// extra, and waits until its readiness probe answers 200.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	// Should the benchmark itself be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start isegend: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("isegend exited before it was ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("isegend not ready after 30s (last probe error: %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop shuts the daemon down gracefully (SIGINT drains the queue and flushes
// the store) and waits for it to exit, killing it if it hangs.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return fmt.Errorf("signal isegend: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("isegend exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("isegend did not exit within 20s of SIGINT")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// cpuTime reads the daemon's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon CPU time: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// machineCPU is a /proc/stat snapshot of the whole machine's CPU time.
type machineCPU struct{ busy, idle, steal int64 }

// readMachineCPU sums the aggregate cpu line: busy is user, nice, system,
// irq and softirq; idle includes iowait; steal is time the hypervisor gave
// to other guests.
func readMachineCPU() (machineCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineCPU{}, fmt.Errorf("read /proc/stat: %w", err)
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return machineCPU{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return machineCPU{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
	}
	return machineCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}, nil
}

// shares reports, over the interval from m to n, the machine's busy and
// stolen shares of all CPU time.
func (m machineCPU) shares(n machineCPU) (busy, steal float64) {
	busyD, idleD, stealD := n.busy-m.busy, n.idle-m.idle, n.steal-m.steal
	total := float64(busyD + idleD + stealD)
	if total <= 0 {
		return 0, 0
	}
	return float64(busyD) / total, float64(stealD) / total
}
