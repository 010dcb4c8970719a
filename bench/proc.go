package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childRun is one finished hddpred invocation.
type childRun struct {
	wall   time.Duration
	maxRSS float64 // MB, from the kernel's rusage of the child
	stdout []byte
	err    error
}

// runChild runs hddpred with args to completion.
//
// Linux folds the parent's peak RSS into a child's ru_maxrss at exec (the
// child execs from the parent's address space), so a child started after
// the benchmark allocated its inputs would report the benchmark's peak, not
// its own. Callers run settle after setup, which resets the benchmark's
// peak, so the child's figure is its own.
func runChild(bin string, args ...string) childRun {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := childRun{wall: time.Since(t0), stdout: stdout.Bytes(), err: err}
	if err != nil {
		r.err = fmt.Errorf("hddpred %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.maxRSS = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
	}
	return r
}

// settle prepares the measured phase: it writes back every file in dir,
// returns the benchmark's freed heap to the OS and resets its peak RSS to
// the current RSS, so later peak readings cover only what follows.
//
// The kernel writes files back lazily, seconds after they were written;
// write-back of the inputs during a measurement slowed decode-bound passes
// by 20% at random. The peak reset is best effort: without it a reading
// still bounds the peak from above.
func settle(dir string) error {
	if err := syncDir(dir); err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return nil
}

// syncDir fsyncs every regular file directly in dir: everything the
// benchmark writes lives there.
func syncDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("sync %s: %w", ent.Name(), err)
		}
	}
	return nil
}

// procStatusMB reads one "kB" field (VmHWM, VmRSS) of /proc/<pid>/status
// in MB.
func procStatusMB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != field {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/status %s: %w", pid, field, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// machineTicks reads the machine's total and stolen CPU time, in clock
// ticks, from the first line of /proc/stat.
func machineTicks() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// procCPUSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat, in the kernel's fixed 100 Hz clock ticks.
func procCPUSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: no command field", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f))
	}
	var ticks float64
	for _, v := range f[11:13] { // utime, stime
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += n
	}
	return ticks / 100, nil
}
