// Package eval accumulates drive-level detection outcomes into the paper's
// metrics: the failure detection rate (FDR — fraction of failed drives
// correctly flagged), the false alarm rate (FAR — fraction of good drives
// incorrectly flagged) and the time in advance (TIA — lead time of correct
// warnings), plus ROC curves and the TIA histograms of Figures 3–4.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hddcart/internal/detect"
)

// Result summarizes one evaluation run.
type Result struct {
	// GoodTotal and GoodAlarmed count good test drives and false alarms.
	GoodTotal, GoodAlarmed int
	// FailedTotal and FailedDetected count failed test drives and
	// correct detections.
	FailedTotal, FailedDetected int
	// TIAs holds the lead hours of every correct detection.
	TIAs []int
}

// FAR returns the false alarm rate in [0,1].
func (r Result) FAR() float64 {
	if r.GoodTotal == 0 {
		return 0
	}
	return float64(r.GoodAlarmed) / float64(r.GoodTotal)
}

// FDR returns the failure detection rate in [0,1].
func (r Result) FDR() float64 {
	if r.FailedTotal == 0 {
		return 0
	}
	return float64(r.FailedDetected) / float64(r.FailedTotal)
}

// MeanTIA returns the mean lead time in hours (0 when nothing was
// detected).
func (r Result) MeanTIA() float64 {
	if len(r.TIAs) == 0 {
		return 0
	}
	sum := 0
	for _, t := range r.TIAs {
		sum += t
	}
	return float64(sum) / float64(len(r.TIAs))
}

// String formats the result like the paper's table rows.
func (r Result) String() string {
	return fmt.Sprintf("FAR %.2f%%  FDR %.2f%%  TIA %.1f h (good %d/%d, failed %d/%d)",
		r.FAR()*100, r.FDR()*100, r.MeanTIA(),
		r.GoodAlarmed, r.GoodTotal, r.FailedDetected, r.FailedTotal)
}

// Counter accumulates outcomes; it is safe for concurrent use so drive
// scans can run on a worker pool.
type Counter struct {
	mu  sync.Mutex
	res Result
}

// AddGood records a good test drive and whether it raised a false alarm.
func (c *Counter) AddGood(alarmed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.GoodTotal++
	if alarmed {
		c.res.GoodAlarmed++
	}
}

// AddFailed records a failed test drive's outcome.
func (c *Counter) AddFailed(out detect.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.FailedTotal++
	if out.Alarmed {
		c.res.FailedDetected++
		if out.LeadHours >= 0 {
			c.res.TIAs = append(c.res.TIAs, out.LeadHours)
		}
	}
}

// Result returns a snapshot of the accumulated metrics.
func (c *Counter) Result() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.res
	out.TIAs = append([]int(nil), c.res.TIAs...)
	return out
}

// TIABucketBounds are the upper bounds (hours, inclusive) of the TIA
// histogram buckets in the paper's Figures 3 and 4; leads above the last
// bound are counted in the final bucket.
var TIABucketBounds = []int{24, 72, 168, 336, 450}

// TIABucketLabels are the printable bucket ranges.
var TIABucketLabels = []string{"0-24", "25-72", "73-168", "169-336", "337-450"}

// TIAHistogram buckets lead times per the paper's figures.
func TIAHistogram(tias []int) []int {
	counts := make([]int, len(TIABucketBounds))
	for _, t := range tias {
		placed := false
		for i, ub := range TIABucketBounds {
			if t <= ub {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(counts)-1]++
		}
	}
	return counts
}

// Point is one operating point of an ROC curve.
type Point struct {
	// Param is the swept parameter (voter count N or RT threshold).
	Param float64
	// Result holds the metrics at this point.
	Result Result
}

// Curve is an ROC curve: the FDR/FAR trade-off across a parameter sweep.
type Curve []Point

// String renders the curve as a table.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %10s %10s\n", "param", "FAR(%)", "FDR(%)", "TIA(h)")
	for _, p := range c {
		fmt.Fprintf(&b, "%10.3g %10.4f %10.2f %10.1f\n",
			p.Param, p.Result.FAR()*100, p.Result.FDR()*100, p.Result.MeanTIA())
	}
	return b.String()
}

// SortByFAR orders the curve by increasing false alarm rate.
func (c Curve) SortByFAR() {
	sort.Slice(c, func(i, j int) bool { return c[i].Result.FAR() < c[j].Result.FAR() })
}
