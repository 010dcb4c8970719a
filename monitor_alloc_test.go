package hddcart

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hddcart/internal/smart"
)

// criticalMonitor is a monitor shaped like a serve shard's: the 13
// critical features (three 6 h change rates, so a 9-row ring) and 11
// voters, scoring the Raw Read Error Rate offset as firstFeatureModel
// does.
func criticalMonitor(tb testing.TB, budget int) *Monitor {
	tb.Helper()
	m, err := NewMonitor(MonitorConfig{
		Features: smart.CriticalFeatures(), Model: firstFeatureModel{}, Voters: 11, BadSampleBudget: budget,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestObserveAllocs pins Observe at zero allocations once a drive
// exists, on the plain path, the repair path and the path of a drive
// that has already warned.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := criticalMonitor(t, -1) // no quarantine: every corrupt record is repaired
	hour := 0
	var warned []string
	observe := func(serial string, v float64, corrupt bool) {
		r := recAt(hour, v)
		if corrupt {
			// A plan column, carried forward, and one the plan never reads.
			i, _ := smart.Index(smart.ReallocatedSectors)
			r.Raw[i], r.Raw[0] = math.NaN(), math.Inf(1)
		}
		if w, ok := m.Observe(serial, r); ok {
			warned = append(warned, w.Serial)
		}
		hour++
	}
	for range 40 {
		observe("healthy", 0.5, false)
		observe("repaired", 0.5, false)
		observe("failing", -0.5, false)
	}
	if len(warned) != 1 || warned[0] != "failing" {
		t.Fatalf("warned %v, want the failing drive once", warned)
	}
	before := m.Stats()
	cases := []struct {
		name    string
		serial  string
		v       float64
		corrupt bool
	}{
		{"plain", "healthy", 0.5, false},
		{"repair", "repaired", 0.5, true},
		{"already warned", "failing", -0.5, false},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, func() { observe(tc.serial, tc.v, tc.corrupt) }); allocs != 0 {
			t.Errorf("%s: Observe allocates %.1f per call, want 0", tc.name, allocs)
		}
	}
	after := m.Stats()
	if len(warned) != 1 || after.Repaired == before.Repaired || after.Scored-before.Scored != after.Observed-before.Observed {
		t.Fatalf("paths not exercised: stats before %+v, after %+v", before, after)
	}
}

// TestMonitorHeapPerDrive pins the Monitor's footprint: at 100k drives
// with full rings and vote windows it holds at most 1.5 KB of heap per
// drive, and a drive's fixed record is 40 bytes on 64-bit platforms.
func TestMonitorHeapPerDrive(t *testing.T) {
	const drives, hours, budget = 100_000, 20, 1536
	serials := make([]string, drives)
	for i := range serials {
		serials[i] = fmt.Sprintf("Z%09d", i)
	}
	before := heapAlloc()
	m := criticalMonitor(t, 0)
	for h := range hours {
		for _, s := range serials {
			m.Observe(s, recAt(h, 0.5))
		}
	}
	perDrive := float64(heapAlloc()-before) / drives
	runtime.KeepAlive(m)
	t.Logf("%.0f bytes of heap per drive", perDrive)
	if sz := unsafe.Sizeof(driveState{}); unsafe.Sizeof(uintptr(0)) == 8 && sz != 40 {
		t.Errorf("driveState is %d bytes on a 64-bit platform, want 40", sz)
	}
	if perDrive > budget {
		t.Errorf("monitor holds %.0f bytes of heap per drive, want ≤ %d", perDrive, budget)
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkMonitorMillion fills a critical-feature monitor with a
// million drives and reports its heap per drive and the time to write
// and to restore its snapshot. It needs ~3 GB and is run by hand:
//
//	go test -run '^$' -bench MonitorMillion -benchtime 1x .
func BenchmarkMonitorMillion(b *testing.B) {
	const drives, hours = 1_000_000, 12
	serials := make([]string, drives)
	for i := range serials {
		serials[i] = fmt.Sprintf("Z%09d", i)
	}
	for range b.N {
		before := heapAlloc()
		m := criticalMonitor(b, 0)
		t0 := time.Now()
		for h := range hours {
			for _, s := range serials {
				m.Observe(s, recAt(h, 0.5))
			}
		}
		observeNs := float64(time.Since(t0).Nanoseconds()) / (drives * hours)
		heapPerDrive := float64(heapAlloc()-before) / drives
		var buf bytes.Buffer
		t0 = time.Now()
		if err := m.EncodeSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		snapS := time.Since(t0).Seconds()
		snapMB := float64(buf.Len()) / (1 << 20)
		m = nil
		runtime.GC()
		restored := criticalMonitor(b, 0)
		t0 = time.Now()
		if err := restored.RestoreSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		restoreS := time.Since(t0).Seconds()
		b.ReportMetric(observeNs, "observe-ns")
		b.ReportMetric(heapPerDrive, "heap-B/drive")
		b.ReportMetric(snapMB, "snapshot-MB")
		b.ReportMetric(snapS, "snapshot-s")
		b.ReportMetric(restoreS, "restore-s")
	}
}

// BenchmarkMonitorObserve times Observe in steady state on a serve
// shard's shape: the ct tree over the 13 critical features, 11 voters,
// 10k drives with full rings, each tick one record per drive.
func BenchmarkMonitorObserve(b *testing.B) {
	ct, _ := trainOnlineOfflineModels(b)
	fleet, err := GenerateFleet(FleetConfig{Seed: 5, GoodScale: 0.004, FailedScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	var traces [][]Record
	for _, d := range fleet.Drives() {
		traces = append(traces, fleet.Trace(d.Index))
	}
	const drives = 10_000
	serials := make([]string, drives)
	for i := range serials {
		serials[i] = fmt.Sprintf("Z%09d", i)
	}
	m, err := NewMonitor(MonitorConfig{Features: smart.CriticalFeatures(), Model: ct, Voters: 11})
	if err != nil {
		b.Fatal(err)
	}
	at := func(i, t int) Record {
		tr := traces[i%len(traces)]
		r := tr[t%len(tr)]
		r.Hour = t
		return r
	}
	t := 0
	for ; t < 12; t++ {
		for i, s := range serials {
			m.Observe(s, at(i, t))
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; t++ {
		for i := 0; i < drives && n < b.N; i, n = i+1, n+1 {
			m.Observe(serials[i], at(i, t))
		}
	}
}
