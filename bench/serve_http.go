package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hddcart"
	"hddcart/internal/serve"
	"hddcart/internal/smart"
)

// serve-http sizes at scale 1 and its load shape. Rates are records per
// second; each POST carries httpBatch records of one block of drives for
// one tick, so a tick is httpDrives/httpBatch posts.
const (
	httpDrives = 4000
	httpBatch  = 100
	httpConns  = 2
	// Open-loop rungs. A and B stay well below the host's capacity, so a
	// refusal there means a regression; C approaches it, and reaches it
	// when the host runs slow.
	rungA, rungB, rungC = 20000, 40000, 80000
	// latencyLimitMs is the batch latency limit a rung's p99 and the
	// generator's lateness p99 must meet for http.max_ok_rate.
	latencyLimitMs = 50
	// loadCycles is how often the run repeats the ladder of rungs and
	// capacity windows; capacityWindows is the total number of windows.
	loadCycles, capacityWindows = 3, 6
)

func rungName(rate int) string { return strconv.Itoa(rate/1000) + "k" }

// httpState is serve-http's set-up state: the fleet pre-rendered as JSON
// lines, the model file and a running hddpred serve.
type httpState struct {
	*serveInputs
	modelPath string
	// prefix[d] is drive d's line up to its hour; suffix[d][j] is the rest
	// of the line for base record j.
	prefix [][]byte
	suffix [][][]byte
	child  *serverChild
}

// serverChild is a running `hddpred serve`.
type serverChild struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	ready  time.Duration // exec to the first healthy /healthz
}

// startServer starts hddpred serve on a free loopback port and waits until
// it answers /healthz.
func startServer(bin, model string) (*serverChild, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	c := &serverChild{url: "http://" + addr}
	c.cmd = exec.Command(bin, "serve", "-m", model, "-addr", addr, "-voters", strconv.Itoa(serveVoters))
	c.cmd.Stderr = &c.stderr
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := client.Get(c.url + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			c.ready = time.Since(t0)
			return c, nil
		}
	}
	stopErr := c.stop()
	return nil, errors.Join(fmt.Errorf("hddpred serve not healthy after 30s: %s", bytes.TrimSpace(c.stderr.Bytes())), stopErr)
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within 20 s, and waits for it.
func (c *serverChild) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	kill := time.AfterFunc(20*time.Second, func() { _ = c.cmd.Process.Kill() })
	defer kill.Stop()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("hddpred serve: %w: %s", err, bytes.TrimSpace(c.stderr.Bytes()))
	}
	return nil
}

// triIndex maps tick t onto a triangle wave over n ≥ 2 records: 0, 1, …,
// n-1, n-2, …, 1, 0, 1, … so consecutive ticks never jump.
func triIndex(t, n int) int {
	period := 2 * (n - 1)
	i := t % period
	if i >= n {
		i = period - i
	}
	return i
}

// renderSuffix renders the part of a JSONL ingest line after the hour:
// the values in the shortest form that parses back to the same float64.
func renderSuffix(r *smart.Record) []byte {
	b := []byte(`,"normalized":[`)
	for i, v := range r.Normalized {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `],"raw":[`...)
	for i, v := range r.Raw {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

func setupServeHTTP(e *env) (*httpState, string, error) {
	drives := e.scaled(httpDrives/httpBatch) * httpBatch
	in, digest, err := setupServeInputs(e, drives)
	if err != nil {
		return nil, "", err
	}
	st := &httpState{serveInputs: in, modelPath: filepath.Join(e.cfg.workdir, "serve-ct.json")}
	if err := os.WriteFile(st.modelPath, in.model, 0o644); err != nil {
		return nil, "", err
	}
	for i := range in.streams {
		s := &in.streams[i]
		st.prefix = append(st.prefix, []byte(`{"serial":"`+s.serial+`","hour":`))
		var sfx [][]byte
		for j := range s.recs {
			sfx = append(sfx, renderSuffix(&s.recs[j]))
		}
		st.suffix = append(st.suffix, sfx)
	}
	st.child, err = startServer(e.cfg.hddpred, st.modelPath)
	if err != nil {
		return nil, "", err
	}
	return st, digest, nil
}

// render appends the POST body of tick t for drive block b to buf.
func (st *httpState) render(buf []byte, t, b int) []byte {
	for d := b * httpBatch; d < (b+1)*httpBatch; d++ {
		buf = append(buf, st.prefix[d]...)
		buf = strconv.AppendInt(buf, int64(t), 10)
		buf = append(buf, st.suffix[d][triIndex(t, len(st.suffix[d]))]...)
	}
	return buf
}

// rung is one load phase and what it measured.
type rung struct {
	name string
	rate float64 // records/s; 0 is the closed loop
	dur  time.Duration

	lat, late               []float64 // ms, from when each batch was due
	sent, accepted, refused int64     // records
	elapsed                 float64   // seconds
	serverCPU               float64   // seconds the server spent on a CPU during the phase
}

// loadGen drives one serve child in tick order on httpConns keep-alive
// connections.
type loadGen struct {
	st     *httpState
	client *http.Client
	blocks int
	next   atomic.Int64   // next batch to claim; batch k is tick k/blocks, block k%blocks
	ticks  []atomic.Int64 // per block: ticks delivered, so no block's tick t+1 overtakes tick t
	// tainted marks blocks with refused or lost records: their streams
	// have unknown gaps, so the warning check skips them.
	tainted []atomic.Bool
	failed  atomic.Int64

	mu       sync.Mutex // guards warnings and scrapes
	warnings []hddcart.MonitorWarning
	scrapes  []float64
}

// pool merges every phase of the open-loop rung at rate into one rung.
func pool(phases []*rung, rate int) *rung {
	p := &rung{name: "r" + rungName(rate), rate: float64(rate)}
	for _, r := range phases {
		if r.name != p.name {
			continue
		}
		p.lat = append(p.lat, r.lat...)
		p.late = append(p.late, r.late...)
		p.sent += r.sent
		p.accepted += r.accepted
		p.refused += r.refused
		p.elapsed += r.elapsed
		p.serverCPU += r.serverCPU
	}
	return p
}

func newLoadGen(st *httpState) *loadGen {
	blocks := len(st.streams) / httpBatch
	return &loadGen{
		st: st,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true,
		}},
		blocks:  blocks,
		ticks:   make([]atomic.Int64, blocks),
		tainted: make([]atomic.Bool, blocks),
	}
}

// ingestSummary mirrors the /ingest response.
type ingestSummary struct {
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	ParseErrors int64 `json:"parse_errors"`
}

// run drives one phase on httpConns senders.
func (g *loadGen) run(r *rung) {
	start := time.Now()
	end := start.Add(r.dur)
	k0 := g.next.Load()
	var interval time.Duration
	if r.rate > 0 {
		interval = time.Duration(float64(time.Second) * httpBatch / r.rate)
	}
	res := make([]rung, httpConns)
	var senders sync.WaitGroup
	for w := range res {
		senders.Add(1)
		go func() {
			defer senders.Done()
			g.send(&res[w], k0, start, end, interval)
		}()
	}
	senders.Wait()
	r.elapsed = time.Since(start).Seconds()
	for _, x := range res {
		r.lat = append(r.lat, x.lat...)
		r.late = append(r.late, x.late...)
		r.sent += x.sent
		r.refused += x.refused
		r.accepted += x.accepted
	}
}

// send is one sender: claim the next batch while it is due before end
// (open loop) or while time remains (closed loop), wait for its due time
// and for the block's previous tick, post it, and record what happened.
func (g *loadGen) send(out *rung, k0 int64, start, end time.Time, interval time.Duration) {
	var buf []byte
	for {
		var k int64
		var due time.Time
		if interval > 0 {
			k = g.next.Load()
			due = start.Add(time.Duration(k-k0) * interval)
			if !due.Before(end) {
				return
			}
			if !g.next.CompareAndSwap(k, k+1) {
				continue
			}
			sleepUntil(due)
		} else {
			if !time.Now().Before(end) {
				return
			}
			k = g.next.Add(1) - 1
		}
		t, b := int(k)/g.blocks, int(k)%g.blocks
		for g.ticks[b].Load() < int64(t) {
			time.Sleep(50 * time.Microsecond)
		}
		buf = g.st.render(buf[:0], t, b)
		sent := time.Now()
		if interval == 0 {
			due = sent
		}
		sum, ok := g.post(buf)
		done := time.Now()
		g.ticks[b].Store(int64(t) + 1)
		out.lat = append(out.lat, ms64(done.Sub(due)))
		out.late = append(out.late, ms64(sent.Sub(due)))
		out.sent += httpBatch
		if !ok {
			g.failed.Add(httpBatch)
			g.tainted[b].Store(true)
			continue
		}
		out.accepted += sum.Accepted
		out.refused += sum.Rejected
		g.failed.Add(sum.ParseErrors + abs64(httpBatch-sum.Accepted-sum.Rejected-sum.ParseErrors))
		if sum.Rejected > 0 || sum.ParseErrors > 0 {
			g.tainted[b].Store(true)
		}
	}
}

// sleepUntil blocks until t. It calls nanosleep directly: the Go
// runtime's timers wake up to a millisecond late on Linux, which would
// show up as generator lateness in every batch's latency.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the batch late, which is measured
	}
}

// post sends one batch; ok is false on a transport error, a status other
// than 200 or 429, or an unreadable summary.
func (g *loadGen) post(body []byte) (ingestSummary, bool) {
	var sum ingestSummary
	resp, err := g.client.Post(g.st.child.url+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return sum, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests) {
		return sum, false
	}
	return sum, json.Unmarshal(data, &sum) == nil
}

// get fetches path and decodes its JSON body into v.
func (g *loadGen) get(path string, v any) error {
	resp, err := g.client.Get(g.st.child.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape drains /warnings and reads /metrics once.
func (g *loadGen) scrape() (serve.Metrics, error) {
	var ws []hddcart.MonitorWarning
	var m serve.Metrics
	t0 := time.Now()
	err := errors.Join(g.get("/warnings", &ws), g.get("/metrics", &m))
	g.mu.Lock()
	g.warnings = append(g.warnings, ws...)
	g.scrapes = append(g.scrapes, ms64(time.Since(t0)))
	g.mu.Unlock()
	return m, err
}

// quiesce waits, for at most 30 s, until the server has observed every
// record it accepted.
func (g *loadGen) quiesce() error {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var m serve.Metrics
		if err := g.get("/metrics", &m); err != nil {
			return err
		}
		if m.Totals.Pending == 0 {
			return nil
		}
	}
	return nil
}

func (g *loadGen) scrapeEvery(every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := g.scrape(); err != nil {
				g.failed.Add(1)
			}
		}
	}
}

func runServeHTTP(e *env) error {
	st, err := setupRepeated(e, func() (*httpState, string, error) { return setupServeHTTP(e) },
		func(st *httpState) { _ = st.child.stop() })
	if err != nil {
		return err
	}
	err = measureServeHTTP(e, st)
	if stopErr := st.child.stop(); stopErr != nil {
		// A server that cannot shut down cleanly failed, but the
		// measurements stand.
		e.logf("%v", stopErr)
		e.count(0, 1)
	}
	return err
}

func measureServeHTTP(e *env, st *httpState) error {
	if err := settle(e.cfg.workdir); err != nil {
		return err
	}
	g := newLoadGen(st)
	var probe *batchProbe
	if e.cfg.traced {
		var err error
		if probe, err = newBatchProbe(e, st); err != nil {
			return err
		}
		// The probe's servers keep no snapshot: closing only stops them.
		defer func() { _ = probe.close() }()
	}
	// After a warm-up the run repeats the ladder — three open-loop rungs,
	// then closed-loop capacity windows — loadCycles times, and pools each
	// rung's samples: the host's speed drifts over seconds, and a rung
	// measured in one stretch would report whichever stretch it got.
	// Capacity is the median of its windows, so one stall does not set it.
	secs := time.Duration(e.cfg.seconds * float64(time.Second))
	phases := []*rung{{name: "warm-up", rate: rungA, dur: secs / 10}}
	for c := 0; c < loadCycles; c++ {
		for _, rate := range []int{rungA, rungB, rungC} {
			phases = append(phases, &rung{name: "r" + rungName(rate), rate: float64(rate), dur: secs * 2 / 10 / loadCycles})
		}
		for i := 0; i < capacityWindows/loadCycles; i++ {
			phases = append(phases, &rung{name: "capacity", dur: secs * 3 / 10 / capacityWindows})
		}
	}
	// A once-a-second scraper of /warnings and /metrics shares the
	// senders' connections throughout.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		g.scrapeEvery(time.Second, stop)
	}()
	pid := strconv.Itoa(st.child.cmd.Process.Pid)
	var err error
	for i, r := range phases {
		var c0, c1 float64
		if c0, err = procCPUSeconds(pid); err != nil {
			break
		}
		sp := e.tr.begin("http.rung", -1, i)
		g.run(r)
		e.tr.end(sp, r.sent)
		// A phase ends once the server has observed what it accepted: its
		// CPU time is the phase's own, and the next phase does not start on
		// its backlog.
		if err = g.quiesce(); err != nil {
			break
		}
		if c1, err = procCPUSeconds(pid); err != nil {
			break
		}
		r.serverCPU = c1 - c0
		for j := 0; j < 2 && err == nil; j++ {
			err = e.sampleRef(false)
		}
		if err != nil {
			break
		}
		if probe != nil && r.name == "r"+rungName(rungA) {
			if err = probe.run(g); err != nil {
				break
			}
		}
	}
	close(stop)
	scraper.Wait()
	if err != nil {
		return err
	}

	// The last phase ended quiesced: collect the last warnings and the
	// server's own accounting.
	m, err := g.scrape()
	if err != nil {
		return err
	}
	rss, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		return err
	}
	var sent, accepted, refused int64
	for _, r := range phases {
		sent += r.sent
		accepted += r.accepted
		refused += r.refused
	}
	tot := m.Totals
	failed := g.failed.Load() + abs64(accepted-tot.Accepted) + abs64(refused-tot.Rejected) +
		abs64(tot.Accepted-int64(tot.Monitor.Observed)) + tot.Pending

	keep := func(i int) bool { return i%serveSampleEvery == 0 && !g.tainted[i/httpBatch].Load() }
	checked := 0
	for i := range st.streams {
		if keep(i) {
			checked++
		}
	}
	ref, calls, busy, err := referenceWarnings(st.serveInputs, serveSampleEvery,
		func(i int) int { return int(g.ticks[i/httpBatch].Load()) })
	if err != nil {
		return err
	}
	index := map[string]int{}
	for i := range st.streams {
		index[st.streams[i].serial] = i
	}
	keepSerial := func(s string) bool { i, ok := index[s]; return ok && keep(i) }
	var refKept []hddcart.MonitorWarning
	for _, w := range ref {
		if keepSerial(w.Serial) {
			refKept = append(refKept, w)
		}
	}
	failed += warningMismatches(g.warnings, refKept, keepSerial)
	e.count(sent, failed)

	rungs := []*rung{pool(phases, rungA), pool(phases, rungB), pool(phases, rungC)}
	a, b := rungs[0], rungs[1]
	// The end-to-end figures come from rung B, which keeps the server busy
	// but below capacity (rung C reaches it when the host runs slow). At
	// rung A the server idles between batches, and its latency and CPU per
	// record follow its wake-ups more than the host's speed. Throughput is
	// what one CPU of the server sustains: records accepted per second of
	// the server's CPU time. The closed-loop capacity also depends on how
	// the generator and the server share the host's two CPUs, and spreads
	// wider run to run.
	perCPUSecond := float64(b.accepted) / b.serverCPU
	var capacity []float64
	for _, r := range phases {
		if r.rate == 0 {
			capacity = append(capacity, float64(r.accepted)/r.elapsed)
		}
	}
	if err := e.reportTimes(median(b.lat), perCPUSecond); err != nil {
		return err
	}
	e.e2e["max_rss_mb"] = rss
	for _, r := range rungs {
		e.logf("%-6s %6.0f records/s sent: batch p50 %.3f ms, p99 %.3f ms (%d batches), generator late p50 %.3f p99 %.3f ms, %d refused, server CPU %.2f µs/record",
			r.name, float64(r.sent)/r.elapsed, median(r.lat), quantile(r.lat, 0.99), len(r.lat), median(r.late), quantile(r.late, 0.99), r.refused,
			r.serverCPU/float64(r.accepted)*1e6)
	}
	e.logf("%.0f records per server CPU-second at rung B; closed-loop capacity %.0f records/s (median of %d windows)",
		perCPUSecond, median(capacity), len(capacity))
	e.logf("%d warnings collected, %d of them from %d checked drives", len(g.warnings), len(refKept), checked)
	if !e.cfg.traced {
		return nil
	}
	e.layer["bench.samples"] = float64(len(a.lat))
	e.layer["cmd.ready_s"] = st.child.ready.Seconds()
	e.layer["cart.train_s"] = st.trainS
	e.layer["monitor.observe_ns"] = float64(busy.Nanoseconds()) / float64(calls)
	e.layer["monitor.scored_share"] = float64(tot.Monitor.Scored) / float64(max(1, tot.Monitor.Observed))
	e.layer["serve.refused"] = float64(refused)
	e.layer["serve.scrape_ms_p50"] = median(g.scrapes)
	maxOK := 0.0
	for _, r := range rungs {
		name := r.name
		e.layer["gen.late_ms_p99."+name] = quantile(r.late, 0.99)
		if _, ok := findMetric(perLayer, "http.batch_ms_p50."+name); ok {
			e.layer["http.batch_ms_p50."+name] = median(r.lat)
		}
		e.layer["http.batch_ms_p99."+name] = quantile(r.lat, 0.99)
		if r.refused == 0 && quantile(r.lat, 0.99) <= latencyLimitMs && quantile(r.late, 0.99) <= latencyLimitMs {
			maxOK = r.rate
		}
	}
	e.layer["http.max_ok_rate"] = maxOK
	e.layer["http.capacity_per_s"] = median(capacity)
	e.layer["gen.sent_rate.r"+rungName(rungC)] = float64(rungs[2].sent) / rungs[2].elapsed

	handlerNs, ingestNs := median(probe.handler), median(probe.ingest)
	e.layer["serve.handler_ns"] = handlerNs
	e.layer["serve.ingest_ns"] = ingestNs
	e.layer["serve.decode_ns"] = handlerNs - ingestNs
	e.layer["ledger.overhead"] = median(probe.traced)/median(probe.plain) - 1
	// A batch's latency at the lowest rung is the generator's lateness,
	// the round trip of its body and the handler's cost measured in
	// process; coverage is how much of the measured p50 those explain.
	e.layer["http.transport_ms"] = median(probe.transport)
	e.layer["gen.late_ms_p50.r"+rungName(rungA)] = median(a.late)
	e.layer["ledger.coverage"] = (median(a.late) + median(probe.transport) + handlerNs*httpBatch/1e6) / median(a.lat)
	return nil
}

// batchProbe splits a rung-A batch's latency in a traced run: the round
// trip of its body, and the HTTP handler and direct Ingest timed in
// process. It runs after every rung-A phase, so its samples come from the
// same stretches of the run as the latencies they explain: the host's
// speed drifts, and one probe at one time explained 0.86 to 1.16 of the
// batch p50.
type batchProbe struct {
	e  *env
	st *httpState
	// viaHandler is fed through its HTTP handler, direct through Ingest,
	// both tick by tick from tick 0.
	viaHandler, direct *serve.Server
	next               int // the next tick both are fed

	transport       []float64 // ms
	handler, ingest []float64 // ns per record of each batch
	traced, plain   []float64 // handler batches with and without a span, s
}

// Per probe: probeTicks ticks timed in process (after probeWarmTicks
// untimed ones on the first probe, as the child gets a warm-up) and
// probePosts body round trips.
const probeWarmTicks, probeTicks, probePosts = 8, 4, 40

func newBatchProbe(e *env, st *httpState) (*batchProbe, error) {
	mcfg := monitorConfig(st.tree)
	cfg := serve.Config{NewMonitor: func() (*hddcart.Monitor, error) { return hddcart.NewMonitor(mcfg) }}
	viaHandler, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	direct, err := serve.New(cfg)
	if err != nil {
		return nil, errors.Join(err, viaHandler.Close())
	}
	p := &batchProbe{e: e, st: st, viaHandler: viaHandler, direct: direct}
	if err := p.feed(probeWarmTicks, false); err != nil {
		return nil, errors.Join(err, p.close())
	}
	return p, nil
}

func (p *batchProbe) close() error {
	return errors.Join(p.viaHandler.Close(), p.direct.Close())
}

// run takes one probe: body round trips to the child, then the next
// probeTicks ticks in process.
func (p *batchProbe) run(g *loadGen) error {
	if err := p.roundTrips(g); err != nil {
		return err
	}
	return p.feed(probeTicks, true)
}

// roundTrips POSTs a batch body to an endpoint of the child that only
// answers 405 (the server still reads the body to keep the connection):
// everything a batch pays except the handler. It paces them at rung A's
// rate, so an idle server's wake-up is paid as between rung A's batches.
func (p *batchProbe) roundTrips(g *loadGen) error {
	body := p.st.render(nil, 0, 0)
	interval := time.Duration(float64(time.Second) * httpBatch / rungA)
	start := time.Now()
	for i := 0; i < probePosts; i++ {
		sleepUntil(start.Add(time.Duration(i) * interval))
		t0 := time.Now()
		resp, err := g.client.Post(p.st.child.url+"/healthz", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			return fmt.Errorf("POST /healthz: status %d, want 405", resp.StatusCode)
		}
		p.transport = append(p.transport, ms64(time.Since(t0)))
	}
	return nil
}

// feed feeds both servers the next ticks, every batch through the handler
// of one and Ingest of the other, and records the batches' costs when
// timed. The shards drain after every batch outside the timed region, so
// neither figure pays for observation. Half the timed handler batches
// carry a span; ledger.overhead compares them with the other half.
func (p *batchProbe) feed(ticks int, timed bool) error {
	tr := p.e.tr
	blocks := len(p.st.streams) / httpBatch
	h := p.viaHandler.Handler()
	recs := make([]smart.Record, httpBatch)
	for end := p.next + ticks; p.next < end; p.next++ {
		t := p.next
		for b := 0; b < blocks; b++ {
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(p.st.render(nil, t, b)))
			rec := httptest.NewRecorder()
			tr.on = timed && b%2 == 0
			t0 := time.Now()
			sp := tr.begin("serve.handler", -1, t*blocks+b)
			h.ServeHTTP(rec, req)
			tr.end(sp, httpBatch)
			d := time.Since(t0)
			if timed {
				p.handler = append(p.handler, float64(d.Nanoseconds())/httpBatch)
				if tr.on {
					p.traced = append(p.traced, d.Seconds())
				} else {
					p.plain = append(p.plain, d.Seconds())
				}
			}
			tr.on = false
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process ingest status %d: %s", rec.Code, rec.Body.String())
			}
			p.viaHandler.Drain()

			for j := range recs {
				recs[j] = p.st.streams[b*httpBatch+j].at(t)
			}
			t0 = time.Now()
			for j := range recs {
				if p.direct.Ingest(p.st.streams[b*httpBatch+j].serial, recs[j]) != serve.Accepted {
					return errors.New("in-process ingest refused a record on a drained server")
				}
			}
			d = time.Since(t0)
			if timed {
				p.ingest = append(p.ingest, float64(d.Nanoseconds())/httpBatch)
			}
			p.direct.Drain()
		}
	}
	return nil
}
