package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestServeCLIErrors(t *testing.T) {
	data := writeFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model}); err != nil {
		t.Fatal(err)
	}
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

// TestServeSmoke boots the full service on a local port, ingests a
// tiny batch over HTTP, then shuts it down with SIGINT and checks the
// final state snapshot landed.
func TestServeSmoke(t *testing.T) {
	data := writeFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	snap := filepath.Join(t.TempDir(), "state.snap")

	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-m", model, "-addr", addr, "-shards", "2", "-snapshot", snap})
	}()
	base := "http://" + addr
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
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve exited with: %v", serveErr)
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
