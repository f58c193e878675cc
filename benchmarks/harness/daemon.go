package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// env owns everything a run leaves on the machine: child daemons, their
// stderr logs and their data directories, all under one work directory.
// close reaps and removes all of it, on success and on failure alike.
type env struct {
	aiqld   string
	workDir string
	ctx     context.Context

	mu      sync.Mutex
	daemons []*daemon
	failed  bool // keep stderr logs: a failure message names them
}

func newEnv(ctx context.Context, aiqld, workDir string) (*env, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{aiqld: aiqld, workDir: dir, ctx: ctx}, nil
}

// close kills every daemon still running, waits for each, and removes the
// run's directory — except the stderr logs after a failure.
func (e *env) close() {
	e.killAll()
	e.mu.Lock()
	failed := e.failed
	e.mu.Unlock()
	if !failed {
		_ = os.RemoveAll(e.workDir) // best effort: nothing depends on the scratch directory being gone
		return
	}
	ents, _ := os.ReadDir(e.workDir)
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".stderr") {
			_ = os.RemoveAll(filepath.Join(e.workDir, ent.Name()))
		}
	}
}

// killAll SIGKILLs every daemon, waits for each, and forgets them.
func (e *env) killAll() {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// fail marks the run failed (so logs survive) and wraps err with the
// daemon's stderr path.
func (e *env) fail(d *daemon, err error) error {
	e.mu.Lock()
	e.failed = true
	e.mu.Unlock()
	return fmt.Errorf("%s: %w (daemon stderr: %s)", d.name, err, d.stderrPath)
}

// dataDir returns a fresh data directory path under the work directory.
func (e *env) dataDir(name string) string { return filepath.Join(e.workDir, name+".data") }

// daemon is one aiqld child process across its incarnations: restarts keep
// the address and the stderr log.
type daemon struct {
	env        *env
	name       string
	addr       string
	url        string
	stderrPath string

	cmd     *exec.Cmd
	args    []string      // the current incarnation's flags, without -addr
	exited  chan struct{} // closed once the incarnation has been waited for
	exitErr error         // its Wait result; read after exited is closed
	stderr  *os.File
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts a new daemon on a fresh port; it does not wait for
// readiness.
func (e *env) spawn(name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		env: e, name: name, addr: addr, url: "http://" + addr,
		stderrPath: filepath.Join(e.workDir, name+".stderr"),
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, d.start(args...)
}

// start launches one incarnation with the daemon's fixed -addr.
func (d *daemon) start(args ...string) error {
	f, err := os.OpenFile(d.stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.env.aiqld, append([]string{"-addr", d.addr}, args...)...)
	cmd.Stderr = f
	cmd.Stdout = f
	// A ledger that is itself SIGKILLed (a driver's timeout) cannot run
	// close: the kernel then takes its daemons with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return d.env.fail(d, err)
	}
	d.cmd, d.stderr, d.args = cmd, f, args
	exited := make(chan struct{})
	d.exited = exited
	go func() {
		d.exitErr = cmd.Wait()
		close(exited)
	}()
	return nil
}

// waitReady polls /readyz until it answers 200 and returns how long that
// took from t0 (the spawn or the kill that started the cycle).
func (d *daemon) waitReady(t0 time.Time) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := now().Add(30 * time.Second)
	for now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, d.env.fail(d, fmt.Errorf("exited before ready: %v", d.exitErr))
		case <-d.env.ctx.Done():
			return 0, d.env.ctx.Err()
		default:
		}
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; the status is the answer
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return now().Sub(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, d.env.fail(d, errors.New("not ready after 30s"))
}

// kill SIGKILLs the current incarnation and waits for it; a no-op when
// none is running.
func (d *daemon) kill() { d.signal(syscall.SIGKILL) }

// stop asks for a graceful shutdown (SIGTERM) and waits.
func (d *daemon) stop() { d.signal(syscall.SIGTERM) }

func (d *daemon) signal(sig syscall.Signal) {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(sig) // already-exited is fine: the wait below is what matters
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.stderr.Close()
	d.cmd = nil
}

// restart crashes the daemon (SIGKILL), starts it again with args, and
// returns kill → /readyz 200.
func (d *daemon) restart(args ...string) (time.Duration, error) {
	t0 := now()
	d.kill()
	if err := d.start(args...); err != nil {
		return 0, err
	}
	return d.waitReady(t0)
}

// peakRSSkB reads the live incarnation's VmHWM, 0 when none is running.
func (d *daemon) peakRSSkB() int64 {
	if d.cmd == nil {
		return 0
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err == nil {
				return kb
			}
		}
	}
	return 0
}

// peakRSSMB sums the peak resident set of the daemons' live incarnations:
// called at the window's end, that is the memory serving the workload took,
// set-up incarnations (bulk load, compaction) not included.
func (e *env) peakRSSMB() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var kb int64
	for _, d := range e.daemons {
		kb += d.peakRSSkB()
	}
	return float64(kb) / 1024
}

// prom is one /metrics scrape: un-labelled series by name. The ledger only
// reads plain counters, gauges and histogram _sum/_count lines.
type prom map[string]float64

func (d *daemon) scrape() (prom, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return nil, d.env.fail(d, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, d.env.fail(d, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode))
	}
	out := make(prom)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// waitMetric polls /metrics until ok(scrape) holds.
func (d *daemon) waitMetric(what string, ok func(prom) bool) error {
	deadline := now().Add(60 * time.Second)
	for now().Before(deadline) {
		p, err := d.scrape()
		if err != nil {
			return err
		}
		if ok(p) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d.env.fail(d, fmt.Errorf("timed out waiting for %s", what))
}

// dirBytes is `du -sb`: the apparent size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if ent.Type().IsRegular() {
			info, err := ent.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
