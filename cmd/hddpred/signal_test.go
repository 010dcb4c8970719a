package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveChildEnv carries a child process's hddpred arguments, one a
// line, to TestServeChildProcess.
const serveChildEnv = "HDDPRED_SERVE_CHILD_ARGS"

// TestServeChildProcess is not a test of its own: run as a child with
// serveChildEnv set, it is `hddpred` with those arguments, exiting 0 on
// success and 1 on error.
func TestServeChildProcess(t *testing.T) {
	args := os.Getenv(serveChildEnv)
	if args == "" {
		t.Skip("runs only as a child process of TestServeSignalAtReadiness")
	}
	if err := run(strings.Split(args, "\n")); err != nil {
		os.Stderr.WriteString("hddpred: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(0)
}

// TestServeSignalAtReadiness stops `hddpred serve` with SIGTERM the
// moment its port accepts a connection, as a supervisor does right after
// a readiness probe, 20 times: every run must exit 0 through the
// graceful path and leave a snapshot the next start restores.
func TestServeSignalAtReadiness(t *testing.T) {
	_, model := sharedFixture(t)
	dir := t.TempDir()
	for i := range 20 {
		snap := filepath.Join(dir, "state.snap")
		os.Remove(snap)
		if out, err := serveUntilReady(t, model, snap); err != nil {
			t.Fatalf("run %d: serve exited with %v\n%s", i, err, out)
		}
		out, err := serveUntilReady(t, model, snap)
		if err != nil {
			t.Fatalf("run %d: restart exited with %v\n%s", i, err, out)
		}
		if !strings.Contains(out, "restored state from") {
			t.Fatalf("run %d: restart did not restore the snapshot:\n%s", i, out)
		}
	}
}

// TestServeListenError starts `hddpred serve` on a port another
// listener already holds: it must exit 1 with the listen error and never
// claim to be listening.
func TestServeListenError(t *testing.T) {
	_, model := sharedFixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeChildProcess$")
	cmd.Env = append(os.Environ(), serveChildEnv+"="+strings.Join(
		[]string{"serve", "-m", model, "-addr", l.Addr().String()}, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("serve on a bound port exited with %v, want exit status 1\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "address already in use") {
		t.Errorf("stderr does not report the listen error:\n%s", out)
	}
	if strings.Contains(out, "listening on") {
		t.Errorf("stderr claims the service is listening:\n%s", out)
	}
}

// serveUntilReady starts `hddpred serve` in a child process, sends it
// SIGTERM as soon as its port accepts a TCP connection, and returns its
// stderr and exit error.
func serveUntilReady(t *testing.T, model, snap string) (string, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeChildProcess$")
	cmd.Env = append(os.Environ(), serveChildEnv+"="+strings.Join(
		[]string{"serve", "-m", model, "-addr", addr, "-shards", "2", "-snapshot", snap}, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("serve never accepted on %s: %v\n%s", addr, err, stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	return stderr.String(), err
}
