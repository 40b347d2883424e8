package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// repoRoot walks up from the working directory to the module root, so the
// loadgen finds bench/ and ./cmd/firehosed from the root (how the benchmark
// command runs it) and from its own package directory (how go test runs it).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module firehose\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the firehose module: no go.mod with `module firehose` above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/firehosed into outDir. It runs before any timed
// interval; the go build cache makes every build after the first a relink.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "firehosed")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/firehosed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/firehosed: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is one firehosed child process.
type daemon struct {
	name    string
	addr    string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait returned
}

// fleet is one booted deployment shape: the process the loadgen talks to
// comes last (for the router shape its workers precede it).
type fleet struct {
	daemons []*daemon
	baseURL string
}

// fleetSpec says where a fleet's files live.
type fleetSpec struct {
	root      string // module root: configs are read from bench/configs
	bin       string // firehosed binary
	followees string
	workDir   string // checkpoint directories are created below it
	logDir    string // daemon stderr, one file per process
	tag       string // log file prefix (the workload name)
}

func startDaemon(ctx context.Context, spec fleetSpec, name, config string, env ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	ckptDir, err := os.MkdirTemp(spec.workDir, name+"-ckpt-")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name:    name,
		addr:    addr,
		logPath: filepath.Join(spec.logDir, spec.tag+"-"+name+".log"),
		exited:  make(chan struct{}),
	}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	// CommandContext kills the child when ctx ends: on a signal, the
	// workload deadline or the first fatal error upstream.
	d.cmd = exec.CommandContext(ctx, spec.bin, "-config", filepath.Join(spec.root, "bench", "configs", config))
	d.cmd.Env = append(os.Environ(),
		"BENCH_ADDR="+addr,
		"BENCH_FOLLOWEES="+spec.followees,
		"BENCH_CKPT_DIR="+ckptDir)
	d.cmd.Env = append(d.cmd.Env, env...)
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	killWithParent(d.cmd)
	err = d.cmd.Start()
	// The child holds its own descriptor now.
	if cerr := logFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing; exited is the signal
		close(d.exited)
	}()
	return d, nil
}

// awaitHealthy polls /v1/healthz until the daemon answers 200. A daemon that
// exits first fails at once with its log tail.
func (d *daemon) awaitHealthy(ctx context.Context, client *http.Client) error {
	url := "http://" + d.addr + "/v1/healthz"
	for {
		if _, _, err := do(ctx, client, http.MethodGet, url, nil); err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before becoming healthy\n%s", d.name, d.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w\n%s", d.name, ctx.Err(), d.logTail())
		case <-time.After(time.Millisecond):
		}
	}
}

// logTail returns the last lines of the daemon's captured stderr.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return "--- " + d.logPath + " ---\n" + strings.Join(lines, "\n")
}

// peakRSSMB reads the process's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// bootFleet starts every process of the shape and returns once all of them
// answer /v1/healthz. The returned duration is setup_s: exec of the first
// process until the last is healthy (graph load + BuildGraph; for the router
// also the peer barrier and the initial coordination round).
func bootFleet(ctx context.Context, spec fleetSpec, s shape, client *http.Client) (*fleet, time.Duration, error) {
	f := &fleet{}
	start := time.Now()
	boot := func(name, config string, env ...string) (*daemon, error) {
		d, err := startDaemon(ctx, spec, name, config, env...)
		if err != nil {
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		return d, nil
	}
	var err error
	switch s {
	case shapeSeq:
		_, err = boot("seq", "seq.json")
	case shapePar:
		_, err = boot("par", "par.json")
	case shapeRouter:
		var w0, w1 *daemon
		if w0, err = boot("worker0", "shard-worker.json", "BENCH_SHARD=0"); err != nil {
			break
		}
		if w1, err = boot("worker1", "shard-worker.json", "BENCH_SHARD=1"); err != nil {
			break
		}
		// The router's own peer barrier waits for the workers.
		_, err = boot("router", "router.json", "BENCH_PEER0=http://"+w0.addr, "BENCH_PEER1=http://"+w1.addr)
	default:
		err = fmt.Errorf("unknown shape %q", s)
	}
	if err == nil {
		for _, d := range f.daemons {
			if err = d.awaitHealthy(ctx, client); err != nil {
				break
			}
		}
	}
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.baseURL = "http://" + f.daemons[len(f.daemons)-1].addr
	return f, time.Since(start), nil
}

// exitedDaemon reports a daemon that is no longer running, with its log tail.
func (f *fleet) exitedDaemon() error {
	for _, d := range f.daemons {
		select {
		case <-d.exited:
			return fmt.Errorf("%s died mid-run\n%s", d.name, d.logTail())
		default:
		}
	}
	return nil
}

// peakRSSMB sums VmHWM over the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range f.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stop kills every process and waits until each has ended. Nothing the
// daemons would write on a graceful shutdown is read afterwards.
func (f *fleet) stop() {
	for _, d := range f.daemons {
		_ = d.cmd.Process.Kill() // already-exited is the only failure and is fine
	}
	for _, d := range f.daemons {
		<-d.exited
	}
}
