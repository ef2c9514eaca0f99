package client

import (
	"bufio"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cash/internal/backoff"
	"cash/internal/daemon"
	"cash/internal/supervise"
)

// fakeServer answers raw frames on a unix socket with a scripted
// handler, standing in for cashd so client behavior is tested in
// isolation.
type fakeServer struct {
	t      *testing.T
	ln     net.Listener
	socket string
}

func newFakeServer(t *testing.T, handler func(conn net.Conn, req daemon.Request) bool) *fakeServer {
	t.Helper()
	socket := filepath.Join(t.TempDir(), "fake.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					var req daemon.Request
					if err := daemon.ReadFrame(br, &req); err != nil {
						return
					}
					if !handler(conn, req) {
						return
					}
				}
			}()
		}
	}()
	return &fakeServer{t: t, ln: ln, socket: socket}
}

func reply(conn net.Conn, resp daemon.Response) bool {
	return daemon.WriteFrame(conn, resp) == nil
}

func TestBackoffIsCappedExponentialWithJitter(t *testing.T) {
	c := &Client{opts: Options{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Seed:        1,
	}.withDefaults()}
	// The nominal schedule is backoff.Exp's (pinned by its own table
	// test); the client scales it by a jitter in [0.5, 1].
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := backoff.Exp(c.opts.BaseBackoff, c.opts.MaxBackoff, attempt)
		d := c.backoff(attempt, 0)
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
	}
	// The server's RETRY_AFTER hint floors the wait.
	if d := c.backoff(1, 500); d < 500*time.Millisecond {
		t.Fatalf("hint ignored: %v", d)
	}
}

func TestBackoffScheduleIsDeterministicPerSeed(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		c := &Client{opts: Options{Seed: seed}.withDefaults(), jitter: seed}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = c.backoff(i+1, 0)
		}
		return out
	}
	a, b := sched(42), sched(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v != %v", i+1, a[i], b[i])
		}
	}
	c := sched(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical jitter schedule")
	}
}

func TestRetryAfterIsRetriedOnFakeClock(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		n := served.Add(1)
		if n <= 2 {
			return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeRetryAfter, RetryAfterMs: 1})
		}
		return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK})
	})
	clock := supervise.NewFakeClock()
	cl, err := Dial(Options{Socket: srv.socket, Clock: clock, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan error, 1)
	go func() { done <- cl.Call(daemon.MethodHealth, nil, nil) }()
	// Two sheds -> two backoff sleeps on the fake clock.
	for i := 0; i < 2; i++ {
		clock.BlockUntil(1)
		clock.Advance(time.Second)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after sheds: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not complete after advancing the clock")
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestMutationWithoutKeyIsNotRetried(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		served.Add(1)
		conn.Close() // sever before replying: outcome unknown to client
		return false
	})
	cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	err = cl.Call(daemon.MethodSubmit, daemon.TenantSpec{Name: "x", Cells: 1}, nil)
	if err == nil {
		t.Fatal("keyless mutation with unknown outcome reported success")
	}
	if !strings.Contains(err.Error(), "not safe to retry") {
		t.Fatalf("error does not explain the no-retry decision: %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("keyless mutation was attempted %d times, want exactly 1", got)
	}
}

func TestMutationWithKeyIsRetried(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		n := served.Add(1)
		if n == 1 {
			conn.Close()
			return false
		}
		if req.Idem != "key-9" {
			t.Errorf("retry lost the idempotency key: %+v", req)
		}
		return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK, Result: []byte(`{"name":"x","cells":1}`)})
	})
	cl, err := Dial(Options{
		Socket: srv.socket, Timeout: time.Second,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Submit("key-9", daemon.TenantSpec{Name: "x", Cells: 1, Seed: 3})
	if err != nil {
		t.Fatalf("keyed mutation did not survive a severed connection: %v", err)
	}
	if got := served.Load(); res.Name != "x" || got != 2 {
		t.Fatalf("res=%+v served=%d", res, got)
	}
}

func TestTerminalCodesAreNotRetried(t *testing.T) {
	for _, code := range []string{daemon.CodeBadRequest, daemon.CodeDraining, daemon.CodeError} {
		var served atomic.Int64
		srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
			served.Add(1)
			return reply(conn, daemon.Response{ID: req.ID, Code: code, Error: "nope"})
		})
		cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		err = cl.Call(daemon.MethodHealth, nil, nil)
		te, ok := err.(*TerminalError)
		if !ok || te.Code != code {
			t.Fatalf("code %s: got %v, want TerminalError", code, err)
		}
		if got := served.Load(); got != 1 {
			t.Fatalf("code %s: retried %d times", code, got)
		}
		cl.Close()
	}
}

func TestDuplicateResponsesAreDiscardedByID(t *testing.T) {
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		// A wire-fault duplicate of a stale response, then an unrelated
		// stream event, then the real reply.
		reply(conn, daemon.Response{ID: req.ID - 1, Code: daemon.CodeOK})
		reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK, Event: true})
		return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK, Result: []byte(`{"tick":5}`)})
	})
	cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var h daemon.HealthResult
	if err := cl.Call(daemon.MethodHealth, nil, &h); err != nil {
		t.Fatalf("call: %v", err)
	}
	if h.Tick != 5 {
		t.Fatalf("client consumed the wrong frame: %+v", h)
	}
}

func TestCallIdemRequiresKey(t *testing.T) {
	cl, err := Dial(Options{Socket: "/nonexistent.sock"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CallIdem(daemon.MethodSubmit, "", nil, nil); err == nil {
		t.Fatal("CallIdem accepted an empty key")
	}
}
