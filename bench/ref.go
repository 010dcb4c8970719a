package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// The benchmark host's speed drifts with its other tenants' memory
// traffic. Over twelve minutes of 15 s windows, scattered reads over a
// buffer far larger than a core's caches and a burst of small allocations
// each took up to twice as long from one window to the next, ALU and
// L2-resident loops stayed within 6%, and the workloads' pass times spread
// by 0.25–0.28 of their median. So a reference process times a mix of the
// three — scattered reads, an allocation burst and an ALU loop, in the
// proportions under which, in that experiment, both a CLI pass and a
// forest sweep scaled one to one with it — between measured operations,
// and end-to-end times are reported at the host speed where the mix takes
// refNominal. Over two sets of ten seeds their spreads stayed within 0.12
// and their medians within 6% between sets, where raw times spread by up
// to 0.20 and moved by 36%. The mix runs in a process of its own so that
// its memory never counts in the benchmark's own peak RSS.

// refEnv, set in a child's environment, makes the benchmark binary (or the
// self-test binary) the reference process.
const refEnv = "HDDCART_BENCH_REFERENCE"

// refNominal is the reference kernels' time that end-to-end times are
// scaled to: about their time on a quiet benchmark host.
const refNominal = 15 * time.Millisecond

// hostRef is a running reference process.
type hostRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// refWarmup is how many samples a new reference process runs and discards:
// the first ones grow its heap.
const refWarmup = 3

// startHostRef starts the reference process from the running executable.
func startHostRef() (h *hostRef, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h = &hostRef{cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < refWarmup; i++ {
		if _, err := h.time(); err != nil {
			return nil, errors.Join(err, h.stop())
		}
	}
	return h, nil
}

// time has the reference process run its kernels once and returns their
// time in seconds.
func (h *hostRef) time() (float64, error) {
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// slowdown returns how much slower than nominal the host ran over the
// samples: an end-to-end time divided by it is a time at nominal speed.
func slowdown(samples []float64) float64 {
	return median(samples) / refNominal.Seconds()
}

// gcMayRun reports whether this process's collector may be marking: the
// heap has grown past halfway from the last collection's live heap to the
// next goal, and the pacer starts marking somewhere beyond that.
func gcMayRun() bool {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	live, goal, heap := s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	return heap > live+(goal-live)/2
}

// stop ends the reference process and waits for it.
func (h *hostRef) stop() error {
	return errors.Join(h.in.Close(), h.cmd.Wait())
}

// referenceMain is the reference process: it answers every line on stdin
// with the kernels' time in nanoseconds. Each sample starts from a
// collected heap, so samples differ only in how fast the host ran them.
func referenceMain() int {
	buf := make([]uint64, 16<<20) // 128 MB, far beyond L2
	for i := range buf {
		buf[i] = uint64(i)
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		runtime.GC()
		t0 := time.Now()
		scatteredReads(buf)
		allocBurst()
		aluLoop()
		fmt.Println(time.Since(t0).Nanoseconds())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench reference:", err)
		return 1
	}
	return 0
}

var refSink uint64

// scatteredReads reads buf at 300k pseudo-random, independent positions.
func scatteredReads(buf []uint64) {
	idx, sum := uint64(12345), uint64(0)
	for i := 0; i < 300_000; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		sum += buf[(idx>>33)%uint64(len(buf))]
	}
	refSink += sum
}

// aluLoop runs 4M dependent multiply-adds.
func aluLoop() {
	x := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink += x
}

// refNode carries a pointer, so the collector scans every node.
type refNode struct {
	next *refNode
	v    [4]uint64
}

// refKept keeps every eighth node of the last burst alive, so the
// collector has live objects to mark.
var refKept []*refNode

// allocBurst allocates 300k small objects.
func allocBurst() {
	refKept = refKept[:0]
	for i := 0; i < 300_000; i++ {
		n := &refNode{}
		n.v[0] = uint64(i)
		if i%8 == 0 {
			refKept = append(refKept, n)
		}
	}
}
