package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup tracks everything the benchmark must not leave behind: child
// servers and temp dirs. run() is idempotent and is called on normal
// exit, on SIGINT/SIGTERM and from the panic handler in main.
type cleanup struct {
	mu       sync.Mutex
	children map[*serverProc]bool
	dirs     []string
}

var janitor = &cleanup{children: map[*serverProc]bool{}}

func (c *cleanup) addDir(dir string) {
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	children := make([]*serverProc, 0, len(c.children))
	for p := range c.children {
		children = append(children, p)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, p := range children {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// installSignalCleanup kills children and removes temp dirs on
// SIGINT/SIGTERM, then exits with the conventional 128+signal code.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		janitor.run()
		code := 130
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// buildServer compiles cmd/griffin-server from the repo root into dir.
func buildServer(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "griffin-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/griffin-server")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/griffin-server: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a free loopback port by bind-and-close.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// serverProc is one griffin-server child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	started time.Time
	exited  chan struct{} // closed once Wait returned
	waitErr error
	setupS  float64 // exec until /healthz answered 200
}

// healthTimeout bounds exec-to-healthy; a server that is not healthy by
// then fails the run with its log tail.
const healthTimeout = 30 * time.Second

// startServer execs the server on a free port with its stderr captured to
// logPath and waits until /healthz returns 200.
func startServer(bin string, flags []string, logPath string, hc *http.Client) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark dies without running its cleanup (SIGKILL), the
	// kernel still takes the child down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	janitor.mu.Lock()
	janitor.children[p] = true
	janitor.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitHealthy(hc); err != nil {
		p.kill()
		return nil, fmt.Errorf("%w\n--- server log tail (%s) ---\n%s", err, logPath, tailFile(logPath, 20))
	}
	return p, nil
}

func (p *serverProc) waitHealthy(hc *http.Client) error {
	deadline := p.started.Add(healthTimeout)
	url := "http://" + p.addr + "/healthz"
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited before becoming healthy: %v", p.waitErr)
		default:
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := hc.Do(req)
		cancel()
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setupS = time.Since(p.started).Seconds()
				return nil
			}
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy within %v: %v", healthTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill SIGKILLs the child and waits until it has ended.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	janitor.mu.Lock()
	delete(janitor.children, p)
	janitor.mu.Unlock()
}

// alive reports whether the child is still running.
func (p *serverProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

func tailFile(path string, lines int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	ls := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(ls) > lines {
		ls = ls[len(ls)-lines:]
	}
	return strings.Join(ls, "\n")
}

// procCPUSeconds returns the process's utime+stime from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14: utime
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clkTck = 100 // USER_HZ: fixed at 100 on every Linux ABI Go targets
	return float64(ut+st) / clkTck, nil
}

// procPeakRSSMB returns the process's VmHWM in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
