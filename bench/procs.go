package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// buildBinaries compiles mck and hpld from the checkout at root into
// binDir. The benchmark does this before any workload, untimed.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/mck", "./cmd/hpld")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building mck and hpld: %w", err)
	}
	return nil
}

// server is a running hpld the load is sent to.
type server interface {
	URL() string
	// PeakRSSMiB is the server process's peak resident set so far.
	PeakRSSMiB() (float64, error)
	Stop() error
}

// startFunc starts a server over a snapshot directory and returns once
// it answers health checks.
type startFunc func(snapDir string) (server, error)

// hpldProc is an hpld child process.
type hpldProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
	log    *os.File
}

// hpldStarter starts the hpld binary; its log is appended to logPath.
func hpldStarter(bin, logPath string) startFunc {
	return func(snapDir string) (server, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, "-addr", addr, "-snapshot-dir", snapDir, "-slow-query", "0", "-drain", "5s")
		cmd.Stdout, cmd.Stderr = logf, logf
		// The daemon must not outlive the benchmark, even if the
		// benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting hpld: %w", err)
		}
		p := &hpldProc{cmd: cmd, url: "http://" + addr, exited: make(chan error, 1), log: logf}
		go func() { p.exited <- cmd.Wait() }()
		if err := p.waitHealthy(10 * time.Second); err != nil {
			p.Stop()
			return nil, err
		}
		return p, nil
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls GET /v1/health until it answers 200, the process
// exits, or the timeout passes.
func (p *hpldProc) waitHealthy(timeout time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.exited:
			p.exited <- err // Stop waits on it again
			return fmt.Errorf("hpld exited before serving: %v (log %s)", err, p.log.Name())
		default:
		}
		if resp, err := cl.Get(p.url + "/v1/health"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("hpld did not become healthy within %v", timeout)
}

func (p *hpldProc) URL() string { return p.url }

func (p *hpldProc) PeakRSSMiB() (float64, error) {
	return vmHWMMiB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// Stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited after 10 s.
func (p *hpldProc) Stop() error {
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.exited:
		return exitErr(err)
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return errors.New("hpld ignored SIGTERM for 10s and was killed")
	}
}

// exitErr treats an exit caused by our own SIGTERM as clean.
func exitErr(err error) error {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// vmHWMMiB reads the VmHWM (peak resident set) line of a
// /proc/<pid>/status file.
func vmHWMMiB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// mckRun is the outcome of one mck invocation.
type mckRun struct {
	stdout string
	exit   int
	wall   time.Duration
	// maxRSSMiB is the child's peak resident set (rusage Maxrss).
	maxRSSMiB float64
}

// runMck runs the mck binary to completion and times it from start to
// exit.
func runMck(ctx context.Context, bin string, args ...string) (mckRun, error) {
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	run := mckRun{stdout: out.String(), wall: time.Since(start)}
	if cmd.ProcessState == nil {
		return run, fmt.Errorf("running mck: %w", err)
	}
	run.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if run.exit != 0 && run.exit != 1 {
		return run, fmt.Errorf("mck %s exited %d: %s", strings.Join(args, " "), run.exit, errOut.String())
	}
	return run, nil
}
