package main

import "time"

// span is one timed call into a layer: one per layer call per pass or
// tick, never per record.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a pass root
	Pass   int    `json:"pass"`
	Count  int64  `json:"count,omitempty"` // work the call did: rows, samples, records
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so the same code runs
// traced and untraced passes.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, pass int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Pass: pass})
	return len(t.spans) - 1
}

// end closes span id with the work count it did.
func (t *tracer) end(id int, count int64) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.spans[id].Count = count
}

// duration returns span id's wall time.
func (t *tracer) duration(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// passLedger is one pass's breakdown: each span name's summed self time
// (its duration minus the part its child spans cover) and work count.
type passLedger struct {
	root  time.Duration
	self  map[string]time.Duration
	count map[string]int64
}

// staged returns the summed self time of every span below the root.
func (l passLedger) staged() time.Duration {
	var sum time.Duration
	for _, d := range l.self {
		sum += d
	}
	return sum
}

// ledger breaks down the pass rooted at span root.
func (t *tracer) ledger(root int) passLedger {
	l := passLedger{root: t.duration(root), self: map[string]time.Duration{}, count: map[string]int64{}}
	pass := t.spans[root].Pass
	childSum := map[int]time.Duration{}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Pass != pass || s.Parent < root {
			break
		}
		childSum[s.Parent] += t.duration(i)
	}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Pass != pass || s.Parent < root {
			break
		}
		l.self[s.Name] += t.duration(i) - childSum[i]
		l.count[s.Name] += s.Count
	}
	return l
}

// stageMedians returns, for each span name, the median over ledgers of its
// per-pass self time in seconds.
func stageMedians(ls []passLedger) map[string]float64 {
	per := map[string][]float64{}
	for _, l := range ls {
		for name, d := range l.self {
			per[name] = append(per[name], d.Seconds())
		}
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}
