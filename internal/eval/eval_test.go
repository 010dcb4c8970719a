package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"hddcart/internal/detect"
)

func TestRates(t *testing.T) {
	r := Result{GoodTotal: 1000, GoodAlarmed: 3, FailedTotal: 40, FailedDetected: 38}
	if got := r.FAR(); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("FAR = %v", got)
	}
	if got := r.FDR(); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("FDR = %v", got)
	}
	empty := Result{}
	if empty.FAR() != 0 || empty.FDR() != 0 || empty.MeanTIA() != 0 {
		t.Error("empty result rates should be 0")
	}
}

func TestMeanTIA(t *testing.T) {
	r := Result{TIAs: []int{100, 200, 300}}
	if got := r.MeanTIA(); got != 200 {
		t.Errorf("MeanTIA = %v", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.AddGood(false)
	c.AddGood(true)
	c.AddFailed(detect.Outcome{Alarmed: true, LeadHours: 50})
	c.AddFailed(detect.Outcome{Alarmed: false, LeadHours: -1})
	r := c.Result()
	if r.GoodTotal != 2 || r.GoodAlarmed != 1 {
		t.Errorf("good counts = %d/%d", r.GoodAlarmed, r.GoodTotal)
	}
	if r.FailedTotal != 2 || r.FailedDetected != 1 {
		t.Errorf("failed counts = %d/%d", r.FailedDetected, r.FailedTotal)
	}
	if len(r.TIAs) != 1 || r.TIAs[0] != 50 {
		t.Errorf("TIAs = %v", r.TIAs)
	}
}

func TestCounterSnapshotIsolation(t *testing.T) {
	var c Counter
	c.AddFailed(detect.Outcome{Alarmed: true, LeadHours: 10})
	r := c.Result()
	r.TIAs[0] = 999
	if got := c.Result().TIAs[0]; got != 10 {
		t.Error("Result must return an isolated copy of TIAs")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(alarm bool) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.AddGood(alarm)
				c.AddFailed(detect.Outcome{Alarmed: true, LeadHours: j})
			}
		}(i%2 == 0)
	}
	wg.Wait()
	r := c.Result()
	if r.GoodTotal != 5000 || r.FailedTotal != 5000 || len(r.TIAs) != 5000 {
		t.Errorf("concurrent totals = %d/%d/%d", r.GoodTotal, r.FailedTotal, len(r.TIAs))
	}
}

func TestTIAHistogram(t *testing.T) {
	tias := []int{0, 24, 25, 72, 100, 336, 337, 450, 500}
	got := TIAHistogram(tias)
	want := []int{2, 2, 1, 1, 3} // 500 lands in the last bucket
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", got, want)
		}
	}
	if len(TIABucketLabels) != len(TIABucketBounds) {
		t.Error("labels/bounds mismatch")
	}
}

func TestCurveString(t *testing.T) {
	c := Curve{
		{Param: 1, Result: Result{GoodTotal: 100, GoodAlarmed: 1, FailedTotal: 10, FailedDetected: 9}},
	}
	s := c.String()
	if !strings.Contains(s, "FAR") || !strings.Contains(s, "90.00") {
		t.Errorf("curve table:\n%s", s)
	}
}

func TestCurveSortAndAUC(t *testing.T) {
	mk := func(far, fdr float64) Result {
		return Result{
			GoodTotal: 10000, GoodAlarmed: int(far * 10000),
			FailedTotal: 100, FailedDetected: int(fdr * 100),
		}
	}
	c := Curve{
		{Param: 3, Result: mk(0.10, 0.95)},
		{Param: 1, Result: mk(0.00, 0.50)},
		{Param: 2, Result: mk(0.05, 0.90)},
	}
	c.SortByFAR()
	if c[0].Param != 1 || c[2].Param != 3 {
		t.Errorf("sort order wrong: %+v", c)
	}
}

func TestResultString(t *testing.T) {
	r := Result{GoodTotal: 100, GoodAlarmed: 1, FailedTotal: 10, FailedDetected: 9, TIAs: []int{100}}
	s := r.String()
	for _, want := range []string{"FAR 1.00%", "FDR 90.00%", "100.0 h"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
}
