package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer lets the test read stderr while run() is still writing it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var listenRE = regexp.MustCompile(`listening on ([0-9.:\[\]]+)`)

// boot starts run() on a loopback port and returns the base URL plus a
// shutdown function that drains and waits for exit.
func boot(t *testing.T, args ...string) (string, *lockedBuffer, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stderr := &lockedBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, stderr)
	}()

	deadline := time.Now().Add(30 * time.Second)
	var base string
	for base == "" {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, stderr, func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(60 * time.Second):
			t.Fatal("server did not exit after drain")
			return -1
		}
	}
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base, stderr, shutdown := boot(t, "-cachedir", dir, "-workers", "1", "-j", "1")

	// Cold run computes, warm run hits, bytes identical.
	cold, coldBody := post(t, base+"/v1/run", `{"experiment":"table5"}`)
	if cold.StatusCode != 200 || cold.Header.Get("X-Swiftdir-Cache") != "miss" {
		t.Fatalf("cold: %d %s", cold.StatusCode, cold.Header.Get("X-Swiftdir-Cache"))
	}
	warm, warmBody := post(t, base+"/v1/run", `{"experiment":"table5"}`)
	if warm.Header.Get("X-Swiftdir-Cache") != "hit" || warmBody != coldBody {
		t.Fatalf("warm run not a byte-identical hit (%s)", warm.Header.Get("X-Swiftdir-Cache"))
	}

	// healthz + statsz are up.
	if resp, body := get2(t, base+"/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	if _, body := get2(t, base+"/statsz"); !strings.Contains(body, `"hits":1`) {
		t.Errorf("statsz missing hit count: %s", body)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "[cache]") {
		t.Errorf("cache footer not printed at exit: %s", stderr.String())
	}

	// A fresh process over the same -cachedir serves the persisted entry.
	base2, _, shutdown2 := boot(t, "-cachedir", dir, "-workers", "1", "-j", "1")
	resp, body := post(t, base2+"/v1/run", `{"experiment":"table5"}`)
	if resp.Header.Get("X-Swiftdir-Cache") != "hit" || body != coldBody {
		t.Errorf("disk-persisted entry not served across restarts (%s)", resp.Header.Get("X-Swiftdir-Cache"))
	}
	if code := shutdown2(); code != 0 {
		t.Errorf("second instance exit code %d", code)
	}
}

func TestServeBadFlags(t *testing.T) {
	if code := run(context.Background(), []string{"-shards", "4"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("removed -shards flag: code %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("bad flag: code %d, want 2", code)
	}
}

func get2(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}
