//go:build unix

package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDrainWithStoreAndAudits boots the daemon on a -store file with every
// query audited, queries it and sends itself SIGTERM while audits — exact
// scans of the mapped table — are still queued. The drain has to let them
// finish before it unmaps anything: released in the wrong order, the next
// audit reads an unmapped page and the process dies of SIGSEGV after
// printing "drained". The second boot does the same on the persisted sample.
func TestDrainWithStoreAndAudits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	cfg := daemonConfig{
		httpAddr: addr, tblName: "Sessions",
		storePath: filepath.Join(dir, "s.store"), genRows: 400000,
		seed: 42, auditFraction: 1, drain: 10 * time.Second,
	}
	for boot := 0; boot < 2; boot++ {
		done := make(chan error, 1)
		go func() { done <- run(cfg) }()
		for i := 0; i < 20; i++ {
			body := fmt.Sprintf(`{"sql":"SELECT AVG(Time) FROM Sessions WHERE City = 'NYC' AND KB > %d"}`, i)
			if err := post(addr, body); err != nil {
				t.Fatalf("boot %d, query %d: %v", boot, i, err)
			}
		}
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
	}
	samples, err := filepath.Glob(filepath.Join(dir, "aqp-sample-*.store"))
	if err != nil || len(samples) != 1 {
		t.Errorf("sample files beside the store: %v (%v), want one", samples, err)
	}
}

// post sends one query, waiting out the boot on the first.
func post(addr, body string) error {
	var err error
	for try := 0; try < 200; try++ {
		var resp *http.Response
		resp, err = http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %s", resp.Status)
			}
			return nil
		}
		if !strings.Contains(err.Error(), "connection refused") {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return err
}
