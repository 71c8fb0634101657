package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"netenergy/internal/obs"
)

// child is one ingestd process: the system under test. It is a separate
// process so that its CPU time and peak memory are the kernel's numbers and
// never include the load generator's.
type child struct {
	cmd    *exec.Cmd
	log    string // path of its stdout+stderr
	stream string // host:port of the device-stream listener
	admin  string // http://host:port of the admin endpoint
	usage  *syscall.Rusage
}

// children tracks every live child so that any exit path — a failed check,
// a panic, a signal — can reap them.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.live {
		c.cmd.Process.Kill() //nolint:errcheck // already exiting
		c.cmd.Wait()         //nolint:errcheck
	}
	children.live = nil
}

var listenLine = regexp.MustCompile(`streaming on (\S+), admin on (http://\S+) \(`)

// startChild launches ingestd on kernel-chosen loopback ports and waits
// until its admin endpoint answers.
func startChild(bin, dir string, args ...string) (*child, error) {
	logPath := filepath.Join(dir, "ingestd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the bench dies without running its cleanup the kernel reaps the
	// child for us.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, log: logPath}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for c.admin == "" {
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("ingestd did not announce its listeners; log: %s", c.logTail())
		}
		b, _ := os.ReadFile(logPath)
		if m := listenLine.FindSubmatch(b); m != nil {
			c.stream, c.admin = string(m[1]), string(m[2])
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		resp, err := http.Get(c.admin + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("ingestd admin never became healthy; log: %s", c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.log)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(b)
}

// cpu is the child's user+system CPU time so far, read from /proc so that a
// phase can be bracketed while the process keeps running. The kernel counts
// in ticks of 1/100 s (USER_HZ), which is 0.1% of a ten-second phase.
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, so the 12th and 13th after ") ".
	i := bytes.LastIndexByte(b, ')')
	f := bytes.Fields(b[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparseable /proc stat line")
	}
	ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparseable /proc stat times")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// scrape reads the child's Prometheus exposition.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get(c.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// errNoDrain reports a child that SIGTERM killed outright: ingestd installs
// its handler a moment after its admin endpoint comes up, so a stop that
// follows the start at once (a repeated set-up) can land in between.
var errNoDrain = errors.New("ingestd was terminated before it could drain")

// stop drains the child with SIGTERM — the daemon seals segments and writes
// its final checkpoint — and records its rusage. A child that will not
// drain is killed and reported.
func (c *child) stop() error {
	if c.usage != nil {
		return nil
	}
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a dead child fails Wait below
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(40 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck
		<-done
		err = errors.New("ingestd did not drain within 40s")
	}
	c.reaped()
	if ws, ok := c.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return errNoDrain
	}
	if err != nil {
		return fmt.Errorf("ingestd exit: %w; log: %s", err, c.logTail())
	}
	return nil
}

func (c *child) kill() {
	if c.usage != nil {
		return
	}
	c.cmd.Process.Kill() //nolint:errcheck
	c.cmd.Wait()         //nolint:errcheck
	c.reaped()
}

func (c *child) reaped() {
	c.usage, _ = c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if c.usage == nil {
		c.usage = &syscall.Rusage{}
	}
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// peakRSSMB is the child's high-water resident set; valid after stop.
func (c *child) peakRSSMB() float64 { return float64(c.usage.Maxrss) / 1024 }

// selfCPU is the bench process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
