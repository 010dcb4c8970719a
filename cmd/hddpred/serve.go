package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hddcart"
	"hddcart/internal/serve"
	"hddcart/internal/smart"
)

// Connection timeouts of hddpred serve. A client gets readHeaderTimeout
// to send a request's headers, so a stalled or hostile one cannot hold a
// connection open for free; an idle keep-alive connection is closed after
// idleTimeout, long enough that collectors posting every few seconds
// never race a server-side close. Bodies are bounded by size at /ingest,
// not by time, so a large batch on a slow link still lands.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the service's HTTP server for h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// cmdServe runs the long-lived fleet-monitoring service: SMART batches
// in over HTTP, routed to serial-sharded monitors, warnings out through
// the merged feed, state snapshotted across restarts.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	modelPath := fs.String("m", "", "model file (required)")
	addr := fs.String("addr", ":9130", "HTTP listen address")
	shards := fs.Int("shards", 0, "monitor shard count (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "per-shard ingest queue bound (0 = default)")
	policyFlag := fs.String("policy", "reject", "full-queue policy: reject (backpressure, 429) or shed (evict oldest)")
	voters := fs.Int("voters", 11, "voting/averaging window N")
	threshold := fs.Float64("threshold", -0.3, "health-degree alarm threshold (rt models)")
	staleAfter := fs.Int("stale-after", 0, "reset a drive's vote window after a telemetry gap this long (hours; 0 disables)")
	badBudget := fs.Int("bad-budget", 0, "per-drive corrupt-sample budget before quarantine (0 = default, negative disables)")
	snapshot := fs.String("snapshot", "", "state snapshot file: restored on start, written on shutdown")
	snapshotEvery := fs.Duration("snapshot-every", 0, "periodic snapshot interval (requires -snapshot)")
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return errors.New("serve: -m model file is required")
	}
	stopProf, err := startProfiles("serve", *cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()
	policy, err := serve.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	model, mf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	// Mirror the evaluate/predict detection rules: regression trees
	// alarm on the window's mean health degree against -threshold,
	// classifiers by majority vote at the ±1 cut.
	mcfg := hddcart.MonitorConfig{
		Features:        smart.CriticalFeatures(),
		Model:           model,
		Voters:          *voters,
		StaleAfterHours: *staleAfter,
		BadSampleBudget: *badBudget,
	}
	if mf.Type == "rt" {
		mcfg.UseMean = true
		mcfg.Threshold = *threshold
	}
	cfg := serve.Config{
		Shards:        *shards,
		QueueDepth:    *queueDepth,
		Policy:        policy,
		NewMonitor:    func() (*hddcart.Monitor, error) { return hddcart.NewMonitor(mcfg) },
		SnapshotPath:  *snapshot,
		SnapshotEvery: *snapshotEvery,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}

	// Catch SIGINT/SIGTERM before the port can answer: a supervisor that
	// stops the service right after its readiness probe connects must
	// get the graceful drain and the final snapshot, not the default
	// handler's exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return errors.Join(fmt.Errorf("serve: %w", err), s.Close())
	}
	m := s.Metrics()
	fmt.Fprintf(os.Stderr, "serve: %s model, %d shards, policy %s, listening on %s\n",
		mf.Type, s.Shards(), policy, ln.Addr())
	if m.SnapshotRestored {
		fmt.Fprintf(os.Stderr, "serve: restored state from %s (%d drives observed)\n",
			*snapshot, m.Totals.Monitor.Observed)
	} else if m.SnapshotErrors > 0 {
		fmt.Fprintf(os.Stderr, "serve: snapshot %s unusable, cold start (counted)\n", *snapshot)
	}
	httpSrv := newHTTPServer(*addr, s.Handler())
	errCh := make(chan error, 1)
	//hddlint:ignore nakedgo the listener goroutine lives for the whole process; it is joined below through errCh (Serve only returns on Shutdown or a fatal accept error)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		// The listener died on its own (a fatal accept error): still drain
		// the shards and write the final snapshot before reporting.
		if closeErr := s.Close(); closeErr != nil {
			return errors.Join(err, closeErr)
		}
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "serve: %v, shutting down\n", got)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: http shutdown: %v\n", err)
	}
	<-errCh // join the listener goroutine (returns ErrServerClosed)
	if err := s.Close(); err != nil {
		return fmt.Errorf("serve: final snapshot: %w", err)
	}
	if *snapshot != "" {
		fmt.Fprintf(os.Stderr, "serve: state snapshotted to %s\n", *snapshot)
	}
	return nil
}
