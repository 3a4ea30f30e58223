package main

// The drad process under test: build it from this repository, boot it
// with the shipped default flags (only -addr and -state-dir change),
// time the boot, read its peak RSS and /metrics, and stop it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// buildDrad compiles repro/cmd/drad into dir. It runs in the bench
// module's directory, whose go.mod replaces repro with the checkout.
func buildDrad(dir string) (string, error) {
	bin := filepath.Join(dir, "drad")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/drad")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building drad: %v\n%s", err, out)
	}
	return bin, nil
}

// dradProc is one running drad.
type dradProc struct {
	cmd    *exec.Cmd
	addr   string // host:port
	log    *addrWriter
	exited chan struct{}
	err    error // Wait's result, valid after exited closes
}

// addrWriter collects drad's output and reports the listen address from
// its first "serving on http://ADDR" line.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	sent  bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 1<<16 {
		w.buf.Write(p)
	}
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "serving on http://"); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				w.sent = true
				w.found <- addr
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDrad boots drad on stateDir and returns once /healthz answers
// 200, with the time from exec to that first 200.
func startDrad(bin, stateDir string) (*dradProc, time.Duration, error) {
	p := &dradProc{
		log:    &addrWriter{found: make(chan string, 1)},
		exited: make(chan struct{}),
	}
	p.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir)
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	// drad dies with the harness even if the harness is killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting drad: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	fail := func(err error) (*dradProc, time.Duration, error) {
		p.kill()
		return nil, 0, fmt.Errorf("%w\ndrad output:\n%s", err, p.log)
	}
	select {
	case p.addr = <-p.log.found:
	case <-p.exited:
		return fail(fmt.Errorf("drad exited during boot: %v", p.err))
	case <-time.After(60 * time.Second):
		return fail(errors.New("drad printed no address within 60s"))
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return p, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("drad /healthz not ready within 60s (last error %v)", err))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// peakRSSMB reads drad's VmHWM (peak resident set) in MiB.
func (p *dradProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains drad with SIGTERM (its shipped shutdown path) and waits
// for it to exit; a drad that does not exit within a minute is killed.
func (p *dradProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-p.exited:
			return nil
		default:
			return err
		}
	}
	select {
	case <-p.exited:
	case <-time.After(time.Minute):
		p.kill()
		return errors.New("drad did not exit within a minute of SIGTERM")
	}
	var ee *exec.ExitError
	if p.err != nil && !(errors.As(p.err, &ee) && ee.ExitCode() == 130) {
		return fmt.Errorf("drad exit: %v\n%s", p.err, p.log)
	}
	return nil
}

// kill ends drad at once and waits for it.
func (p *dradProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// scrapeMetrics reads /metrics and sums every family's samples over
// their labels (histogram series keep their _sum/_count suffixes).
func scrapeMetrics(c *client) (map[string]float64, error) {
	code, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// copyDir copies a state directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// fsType names the filesystem holding path (the audit log's fsync cost
// depends on it).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
