package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hddcart"
	"hddcart/internal/serve"
	"hddcart/internal/trace"
)

func TestServeCLIErrors(t *testing.T) {
	_, model := sharedFixture(t)
	cases := [][]string{
		{"serve"},                                // missing -m
		{"serve", "-m", "missing.json"},          // unreadable model
		{"serve", "-m", model, "-policy", "eat"}, // unknown policy
		{"serve", "-m", model, "-shards", "-1"},
		{"serve", "-m", model, "-snapshot-every", "5s"}, // interval without path
		{"serve", "-m", model, "-voters", "0"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// startServe runs `hddpred serve` with args on a free local port and
// waits until it answers. stop shuts it down with SIGINT, as an operator
// would, and returns what the command returned; a test that fails before
// calling it has it called at cleanup.
func startServe(t *testing.T, args ...string) (base string, stop func() error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"serve", "-addr", addr}, args...)) }()
	base = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var once sync.Once
	var stopErr error
	stop = func() error {
		once.Do(func() {
			if stopErr = syscall.Kill(syscall.Getpid(), syscall.SIGINT); stopErr == nil {
				stopErr = <-done
			}
		})
		return stopErr
	}
	t.Cleanup(func() { stop() })
	return base, stop
}

// TestServeSmoke boots the full service on a local port, ingests a
// tiny batch over HTTP, then shuts it down with SIGINT and checks the
// final state snapshot landed.
func TestServeSmoke(t *testing.T) {
	_, model := sharedFixture(t)
	snap := filepath.Join(t.TempDir(), "state.snap")
	base, stop := startServe(t, "-m", model, "-shards", "2", "-snapshot", snap)
	zeros := strings.Repeat(",0", 22)
	body := fmt.Sprintf(`{"serial":"smoke-1","hour":0,"normalized":[0%s],"raw":[0%s]}`+"\n", zeros, zeros)
	resp, err := http.Post(base+"/ingest", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("serve exited with: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("no final snapshot: %v", err)
	}
}

// TestServeHTTPTimeouts checks the service's server bounds header reads
// and idle keep-alive connections, and, on a copy whose header timeout
// is shortened, that a client stalled mid-header is cut off.
func TestServeHTTPTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout < 10*time.Second || srv.IdleTimeout < 120*time.Second {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want at least 10s and 120s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /ingest HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection without a response; a read that
	// runs into this deadline instead means the stall was not bounded.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled header not cut off: %v", err)
	}
}

// TestServeWarnsWherePredictAlarms sends one trace file through `hddpred
// predict` and, drive by drive, through `hddpred serve`'s CSV /ingest,
// and demands the same alarmed serials at the same hours, for ct
// (voting) and rt (mean health degree) models. The fixture's drives are
// clean and in order, so every one of them is inside the online ≡
// offline contract.
func TestServeWarnsWherePredictAlarms(t *testing.T) {
	data, ct := sharedFixture(t)
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var bodies [][]byte
	for {
		d, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		if err := tw.WriteDrive(d.Meta, d.Records); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	rt := filepath.Join(t.TempDir(), "rt.json")
	stdout(t, "train", "-data", data, "-model", "rt", "-o", rt)
	for _, m := range []struct{ kind, model string }{{"ct", ct}, {"rt", rt}} {
		kind, model := m.kind, m.model
		var offline []string
		for _, line := range strings.Split(stdout(t, "predict", "-data", data, "-m", model), "\n") {
			if serial, hour, ok := strings.Cut(line, "\tWARNING at hour "); ok {
				offline = append(offline, serial+" "+hour)
			}
		}
		if len(offline) == 0 {
			t.Fatalf("%s: predict alarmed on no drive; the comparison would be vacuous", kind)
		}

		// The queue holds a whole drive, so no record is refused.
		base, stop := startServe(t, "-m", model, "-queue-depth", "2048")
		accepted := 0
		for _, body := range bodies {
			resp, err := http.Post(base+"/ingest", "text/csv", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var sum serve.IngestSummary
			err = json.NewDecoder(resp.Body).Decode(&sum)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || sum.Rejected+sum.ParseErrors > 0 {
				t.Fatalf("%s: ingest status %d, %+v, %v", kind, resp.StatusCode, sum, err)
			}
			accepted += sum.Accepted
			// Let the shards drain before the next drive.
			for getJSON[serve.Metrics](t, base+"/metrics").Totals.Monitor.Observed < accepted {
				time.Sleep(time.Millisecond)
			}
		}
		var online []string
		for _, w := range getJSON[[]hddcart.MonitorWarning](t, base+"/warnings") {
			online = append(online, fmt.Sprintf("%s %d", w.Serial, w.Hour))
		}
		if err := stop(); err != nil {
			t.Fatalf("%s: serve exited with: %v", kind, err)
		}
		sort.Strings(offline)
		sort.Strings(online)
		if !reflect.DeepEqual(online, offline) {
			t.Errorf("%s: serve warned %v, predict alarmed %v", kind, online, offline)
		}
	}
}

// getJSON decodes the JSON body of a GET.
func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	var v T
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
