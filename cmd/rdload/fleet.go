package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one started server process, logging to a file.
type proc struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
}

// startProc starts bin with args. The child is killed if rdload dies, so an
// aborted run leaves no server behind.
func startProc(name, url, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: url, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls /readyz every 10 ms until it answers 200, and fails if
// the process exits or timeout passes first.
func (p *proc) waitReady(ctx context.Context, c *client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for !c.ready(ctx, p.url) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, tail(p.log))
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v: %w", p.name, timeout, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}

// stop sends SIGTERM, lets the server drain, and kills it if it lingers. It
// returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(len(lines)-10, 0):], "\n")
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuTime returns the user plus system CPU time process pid has used.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields count on from
	// its closing parenthesis, with utime and stime the 14th and 15th.
	var f []string
	if i := bytes.LastIndexByte(b, ')'); i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns process pid's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
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

// buildServers compiles rdserver and rdproxy from the checkout at root
// into dir.
func buildServers(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/rdserver", "./cmd/rdproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building rdserver and rdproxy: %w\n%s", err, out)
	}
	return nil
}

// findRoot returns the nearest directory at or above the working directory
// whose go.mod declares module landmarkrd.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module landmarkrd" {
				return dir, nil
			}
		}
		if filepath.Dir(dir) == dir {
			return "", fmt.Errorf("no landmarkrd checkout at or above %s", wd)
		}
	}
}
