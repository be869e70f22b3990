package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the tests run the daemon as a subprocess of the test
// binary itself: with CPRD_TEST_MAIN=1 the binary is cprd.
func TestMain(m *testing.M) {
	if os.Getenv("CPRD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterReadyDrains sends SIGTERM the moment /readyz first
// answers 200. The daemon must already be listening for the signal: it
// logs that it is draining and exits 0 instead of dying to the default
// signal action.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(os.Args[0], "-state", t.TempDir(), "-addr", addr, "-runners", "1")
	cmd.Env = append(os.Environ(), "CPRD_TEST_MAIN=1")
	var log bytes.Buffer
	cmd.Stderr = &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Poll from before the listener exists, so the signal goes out at the
	// first moment the daemon could be called ready.
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	werr := cmd.Wait()
	if !strings.Contains(log.String(), "draining") {
		t.Errorf("no draining log line:\n%s", log.String())
	}
	if werr != nil {
		t.Errorf("daemon exit: %v\n%s", werr, log.String())
	}
}
