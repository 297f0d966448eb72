package main

import (
	"bytes"
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
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: every child the harness starts runs in its own
// process group under a deadline, is tracked until reaped, and leaves
// its stderr in <out>/logs/ when it fails — so a wedged tool costs one
// failed operation instead of a hung benchmark, and no exit path
// (including SIGINT) leaves a process or a temp directory behind.

// childTimeout bounds any single child process.
const childTimeout = 150 * time.Second

// tools are the cmd/ binaries under test.
var tools = []string{"tracegen", "mssanalyze", "migexp", "migd"}

// buildTools compiles the cmd/ binaries into <out>/bin and returns how
// long that took.
func (h *harness) buildTools() (time.Duration, error) {
	args := []string{"build", "-o", h.bin + string(filepath.Separator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	t0 := time.Now()
	c, err := h.start("build", "go", args, nil, io.Discard)
	if err != nil {
		return 0, err
	}
	if _, err := c.wait(); err != nil {
		return 0, fmt.Errorf("building cmd/ tools: %w (stderr in %s)", err, h.logs)
	}
	return time.Since(t0), nil
}

// usage is what one finished child cost.
type usage struct {
	// Start and End bracket exec → exit, launcher included.
	Start, End time.Time
	// CPU is the tool's user+system time and MaxRSSMB its peak resident
	// set, both from the rusage the launcher collects; zero for "go".
	CPU      time.Duration
	MaxRSSMB float64
}

// child is one running (or finished) child process.
type child struct {
	label  string
	cmd    *exec.Cmd
	stderr *watchBuffer
	cancel context.CancelFunc
	h      *harness

	start time.Time
	done  chan struct{} // closed once the process is reaped
	use   usage
	err   error
}

// launcherArg is the hidden first argument that turns this binary into
// the rusage launcher (see launch).
const launcherArg = "exec-rusage"

// launch is the launcher mode: run the tool named by args with this
// process's stdin, stdout and stderr, then report the tool's CPU time
// and peak RSS on file descriptor 3 and exit with its exit code.
//
// The tools cannot be children of the harness itself: on Linux a child's
// ru_maxrss starts from its parent's high-water RSS at exec, and the
// harness holds whole decoded traces. The launcher is a few megabytes,
// so what it reports is the tool's own peak.
func launch(args []string) int {
	// The harness signals the whole process group; the tool gets its
	// own copy of a SIGTERM, and the launcher must outlive it to report.
	signal.Notify(make(chan os.Signal, 1), os.Interrupt, syscall.SIGTERM)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	err := cmd.Run()
	st := cmd.ProcessState
	if st == nil {
		fmt.Fprintln(os.Stderr, "benchmark launcher:", err)
		return 127
	}
	rss := 0.0
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KB
		if runtime.GOOS == "darwin" {
			rss /= 1024 // macOS reports bytes
		}
	}
	fmt.Fprintf(os.NewFile(3, "rusage"), "%d %g\n", int64(st.UserTime()+st.SystemTime()), rss)
	if code := st.ExitCode(); code >= 0 {
		return code
	}
	return 1 // killed by a signal
}

// start launches a child in its own process group under the per-child
// deadline. "go" is the toolchain, run from the repository root; any
// other name is a tool in <out>/bin, run through the rusage launcher.
// The caller must eventually call wait.
func (h *harness) start(label, tool string, args []string, stdin io.Reader, stdout io.Writer) (*child, error) {
	cctx, cancel := context.WithTimeout(h.ctx, childTimeout)
	var cmd *exec.Cmd
	var report, reportW *os.File
	if tool == "go" {
		cmd = exec.CommandContext(cctx, "go", args...)
		cmd.Dir = h.root
	} else {
		self, err := os.Executable()
		if err == nil {
			report, reportW, err = os.Pipe()
		}
		if err != nil {
			cancel()
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		cmd = exec.CommandContext(cctx, self, append([]string{launcherArg, filepath.Join(h.bin, tool)}, args...)...)
		cmd.ExtraFiles = []*os.File{reportW}
	}
	cmd.Stdin = stdin
	cmd.Stdout = stdout
	c := &child{label: label, cmd: cmd, stderr: &watchBuffer{}, cancel: cancel, h: h, done: make(chan struct{})}
	cmd.Stderr = c.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// Kill the whole group: the launcher has the tool, go build has
	// compilers.
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 2 * time.Second
	c.start = time.Now()
	err := cmd.Start()
	if reportW != nil {
		reportW.Close() // the launcher holds its own copy
	}
	if err != nil {
		cancel()
		if report != nil {
			report.Close()
		}
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	h.procs.add(c)
	go func() {
		err := cmd.Wait()
		c.use = usage{Start: c.start, End: time.Now()}
		if report != nil {
			var cpu int64
			if _, rerr := fmt.Fscan(report, &cpu, &c.use.MaxRSSMB); rerr != nil && err == nil {
				err = fmt.Errorf("no rusage report from the launcher: %w", rerr)
			}
			c.use.CPU = time.Duration(cpu)
			report.Close()
		}
		if cctx.Err() == context.DeadlineExceeded {
			err = fmt.Errorf("timed out after %v: %w", childTimeout, err)
		}
		c.err = err
		cancel()
		h.procs.remove(c)
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child is reaped and returns what it cost. A
// failed child's stderr is copied to <out>/logs/<label>.stderr.
func (c *child) wait() (usage, error) {
	<-c.done
	if c.err != nil {
		c.h.saveLog(c.label, c.stderr.Bytes())
		return c.use, fmt.Errorf("%s: %w", c.label, c.err)
	}
	return c.use, nil
}

// signal sends sig to the child's process group: the launcher shrugs it
// off, the tool acts on it.
func (c *child) signal(sig syscall.Signal) error {
	return syscall.Kill(-c.cmd.Process.Pid, sig)
}

// exited reports whether the child has already been reaped.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// saveLog writes a failed child's stderr under <out>/logs/.
func (h *harness) saveLog(label string, data []byte) {
	if err := os.MkdirAll(h.logs, 0o755); err != nil {
		return
	}
	name := strings.Map(func(r rune) rune {
		if r == '/' || r == ' ' {
			return '_'
		}
		return r
	}, label)
	_ = os.WriteFile(filepath.Join(h.logs, name+".stderr"), data, 0o644) // best effort: the error itself is already reported
}

// procSet tracks live children so every exit path can reap them.
type procSet struct {
	mu   sync.Mutex
	live []*child
}

// add registers a started child.
func (p *procSet) add(c *child) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = append(p.live, c)
}

// remove forgets a reaped child.
func (p *procSet) remove(c *child) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, l := range p.live {
		if l == c {
			p.live = append(p.live[:i], p.live[i+1:]...)
			return
		}
	}
}

// killAll kills every live child's process group and waits until each
// has been reaped.
func (p *procSet) killAll() {
	p.mu.Lock()
	cs := append([]*child(nil), p.live...)
	p.mu.Unlock()
	for _, c := range cs {
		c.cancel()
	}
	for _, c := range cs {
		<-c.done
	}
}

// watchBuffer collects a child's stderr (bounded) where waitStderr can
// watch it for a marker such as the coordinator's "listening on".
type watchBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// maxStderr bounds how much of a child's stderr is kept.
const maxStderr = 1 << 20

// Write appends to the buffer until it is full; the rest is dropped.
func (w *watchBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if room := maxStderr - w.buf.Len(); room > 0 {
		if len(p) > room {
			w.buf.Write(p[:room])
		} else {
			w.buf.Write(p)
		}
	}
	return len(p), nil
}

// Bytes returns a copy of what has been collected.
func (w *watchBuffer) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// pollEvery is the readiness polling interval.
const pollEvery = 2 * time.Millisecond

// waitStderr polls until the child's stderr matches re and returns the
// first capture group; it gives up when the child exits or the deadline
// passes.
func (c *child) waitStderr(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindSubmatch(c.stderr.Bytes()); m != nil {
			return string(m[1]), nil
		}
		if c.exited() {
			return "", fmt.Errorf("%s exited before printing %q", c.label, re)
		}
		if err := sleepCtx(c.h.ctx, pollEvery); err != nil {
			return "", err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not print %q within %v", c.label, re, timeout)
		}
	}
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// freePort picks a free loopback TCP port by binding port 0 and
// releasing it. Another process can take the port before the daemon
// binds it; startMigd retries when that happens.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	if err := ln.Close(); err != nil {
		return 0, err
	}
	return port, nil
}

// errExited is returned when a daemon exits before it is ready — what
// losing the race for a released port looks like.
var errExited = errors.New("exited before it was ready")

// waitReady polls GET url until ok accepts the 200 body, the child
// exits, or the deadline passes, and returns the accepted body.
func (c *child) waitReady(client *http.Client, url string, timeout time.Duration, ok func([]byte) bool) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		if body, err := httpGet(c.h.ctx, client, url); err == nil && ok(body) {
			return body, nil
		}
		if c.exited() {
			return nil, fmt.Errorf("%s: %w to answer %s", c.label, errExited, url)
		}
		if err := sleepCtx(c.h.ctx, pollEvery); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not answer %s within %v", c.label, url, timeout)
		}
	}
}

// httpGet performs one GET and returns the whole body; a transport error
// and a non-2xx status are both errors.
func httpGet(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return doRequest(client, req)
}

// httpPost performs one POST and returns the whole body; a transport
// error and a non-2xx status are both errors.
func httpPost(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return doRequest(client, req)
}

// doRequest runs the request and drains the response, so the
// connection is reused.
func doRequest(client *http.Client, req *http.Request) ([]byte, error) {
	what := req.Method + " " + req.URL.Path
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %.200s", what, resp.StatusCode, body)
	}
	return body, nil
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: childTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		},
	}
}
