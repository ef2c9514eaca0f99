// Package client is the retrying cashd client: it dials the daemon's
// Unix socket, frames requests in the daemon wire format, and retries
// failures with capped exponential backoff and deterministic jitter —
// but only when a retry cannot double-apply: idempotent reads always,
// mutations only when the caller supplied an idempotency key the
// daemon dedups on.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cash/internal/backoff"
	"cash/internal/daemon"
	"cash/internal/supervise"
)

// Options configure a client. Zero values select the defaults noted.
type Options struct {
	// Socket is the daemon socket path. Required.
	Socket string
	// Timeout bounds each attempt (dial + write + read, default 2s).
	Timeout time.Duration
	// MaxAttempts bounds the retry loop per call (default 8).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between attempts (defaults 5ms, 250ms).
	BaseBackoff, MaxBackoff time.Duration
	// Seed drives the jitter so a test replays the exact backoff
	// schedule (0 picks a fixed default).
	Seed uint64
	// Clock performs the backoff sleeps (default the wall clock); a
	// FakeClock lets tests step through retries without waiting.
	Clock supervise.Clock
	// Log, when non-nil, gets one line per retry decision.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 5 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 0x5ca1ab1e
	}
	if o.Clock == nil {
		o.Clock = supervise.RealClock()
	}
	return o
}

// TerminalError marks a daemon rejection that retrying cannot fix
// (BAD_REQUEST, DRAINING, ERROR).
type TerminalError struct {
	Code   string
	Detail string
}

func (e *TerminalError) Error() string {
	return fmt.Sprintf("cashd: %s: %s", e.Code, e.Detail)
}

// Client is a cashd connection with retry semantics. Safe for
// sequential use; guard concurrent calls with your own mutex or use
// one client per goroutine.
type Client struct {
	opts Options

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	nextID uint64
	jitter uint64
}

// Dial creates a client. The socket is connected lazily on the first
// call, so Dial succeeds even while the daemon is still starting.
func Dial(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	if opts.Socket == "" {
		return nil, errors.New("client: no socket path")
	}
	return &Client{opts: opts, jitter: opts.Seed}, nil
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.br = nil
	return err
}

func (c *Client) ensureLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("unix", c.opts.Socket, c.opts.Timeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

// nextJitter steps a SplitMix64 and returns a fraction in [0, 1).
func (c *Client) nextJitter() float64 {
	c.jitter += 0x9e3779b97f4a7c15
	z := c.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// backoff computes the sleep before attempt n (1-based): capped
// exponential from BaseBackoff, scaled by a jitter in [0.5, 1.0] so
// retrying clients decorrelate, floored by the server's hint.
func (c *Client) backoff(attempt int, hintMs int64) time.Duration {
	d := backoff.Exp(c.opts.BaseBackoff, c.opts.MaxBackoff, attempt)
	d = time.Duration(float64(d) * (0.5 + 0.5*c.nextJitter()))
	return max(d, time.Duration(hintMs)*time.Millisecond)
}

func (c *Client) logf(format string, args ...any) {
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "client: "+format+"\n", args...)
	}
}

// Call performs an idempotent request (queries, health, drain). For
// mutations use CallIdem so retries are safe.
func (c *Client) Call(method string, params, result any) error {
	return c.do(method, "", params, result)
}

// CallIdem performs a mutation under an idempotency key: the daemon
// journals the key before acknowledging, so this call may be retried
// across connection failures — and even across daemon crashes — with
// exactly-once application.
func (c *Client) CallIdem(method, idem string, params, result any) error {
	if idem == "" {
		return errors.New("client: CallIdem requires an idempotency key")
	}
	return c.do(method, idem, params, result)
}

func (c *Client) do(method, idem string, params, result any) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	var rawParams json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("client: marshaling params: %w", err)
		}
		rawParams = b
	}
	retryable := daemon.Idempotent(method) || idem != ""

	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		resp, err := c.attemptLocked(method, idem, rawParams)
		switch {
		case err != nil:
			c.dropLocked()
			lastErr = err
			if !retryable {
				return fmt.Errorf("client: %s failed and is not safe to retry without an idempotency key: %w", method, err)
			}
			c.logf("%s attempt %d: %v", method, attempt, err)
			c.sleepLocked(attempt, 0)
		case resp.Code == daemon.CodeOK:
			if result != nil && resp.Result != nil {
				if err := json.Unmarshal(resp.Result, result); err != nil {
					return fmt.Errorf("client: decoding %s result: %w", method, err)
				}
			}
			return nil
		case resp.Code == daemon.CodeRetryAfter:
			// Shed before admission: nothing was applied, every method
			// is safe to retry.
			lastErr = &TerminalError{Code: resp.Code, Detail: resp.Error}
			c.logf("%s attempt %d: shed, retrying after %dms", method, attempt, resp.RetryAfterMs)
			c.sleepLocked(attempt, resp.RetryAfterMs)
		default:
			return &TerminalError{Code: resp.Code, Detail: resp.Error}
		}
	}
	return fmt.Errorf("client: %s exhausted %d attempts: %w", method, c.opts.MaxAttempts, lastErr)
}

// sleepLocked backs off between attempts without holding the
// connection open past its usefulness.
func (c *Client) sleepLocked(attempt int, hintMs int64) {
	c.opts.Clock.Sleep(c.backoff(attempt, hintMs))
}

// attemptLocked performs one framed request/response exchange under a
// deadline.
func (c *Client) attemptLocked(method, idem string, params json.RawMessage) (daemon.Response, error) {
	if err := c.ensureLocked(); err != nil {
		return daemon.Response{}, err
	}
	c.nextID++
	id := c.nextID
	req := daemon.Request{ID: id, Method: method, Idem: idem, Params: params}
	deadline := time.Now().Add(c.opts.Timeout)
	c.conn.SetDeadline(deadline)
	if err := daemon.WriteFrame(c.conn, req); err != nil {
		return daemon.Response{}, err
	}
	for {
		var resp daemon.Response
		if err := daemon.ReadFrame(c.br, &resp); err != nil {
			return daemon.Response{}, err
		}
		if resp.ID != id || resp.Event {
			// A duplicate of an earlier response (wire-fault dup) or a
			// stray stream event: the ID correlation discards it.
			continue
		}
		return resp, nil
	}
}

// Submit submits a tenant under an idempotency key and returns the ack.
func (c *Client) Submit(idem string, spec daemon.TenantSpec) (daemon.SubmitResult, error) {
	var res daemon.SubmitResult
	err := c.CallIdem(daemon.MethodSubmit, idem, spec, &res)
	return res, err
}

// Health fetches the daemon health snapshot.
func (c *Client) Health() (daemon.HealthResult, error) {
	var res daemon.HealthResult
	err := c.Call(daemon.MethodHealth, nil, &res)
	return res, err
}

// Spend fetches the budget reconciliation.
func (c *Client) Spend() (daemon.SpendResult, error) {
	var res daemon.SpendResult
	err := c.Call(daemon.MethodSpend, nil, &res)
	return res, err
}

// Alloc fetches the placement snapshot.
func (c *Client) Alloc() (daemon.AllocResult, error) {
	var res daemon.AllocResult
	err := c.Call(daemon.MethodAlloc, nil, &res)
	return res, err
}

// Drain asks the daemon to drain gracefully.
func (c *Client) Drain() error {
	return c.Call(daemon.MethodDrain, nil, nil)
}

// Watch subscribes to the epoch stream and invokes handler per event
// until handler returns false (clean stop), the stream ends (the
// daemon exited; returns nil if a Final event was seen, else the read
// error so the caller can reconnect), or timeout expires waiting for
// the next event.
func (c *Client) Watch(timeout time.Duration, handler func(daemon.Epoch) bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return err
	}
	c.nextID++
	id := c.nextID
	if timeout <= 0 {
		timeout = c.opts.Timeout
	}
	c.conn.SetDeadline(time.Now().Add(timeout))
	if err := daemon.WriteFrame(c.conn, daemon.Request{ID: id, Method: daemon.MethodWatch}); err != nil {
		c.dropLocked()
		return err
	}
	sawFinal := false
	for {
		var resp daemon.Response
		if err := daemon.ReadFrame(c.br, &resp); err != nil {
			c.dropLocked()
			if sawFinal {
				return nil
			}
			return err
		}
		c.conn.SetDeadline(time.Now().Add(timeout))
		if resp.ID != id {
			continue
		}
		if resp.Code != daemon.CodeOK {
			c.dropLocked()
			return &TerminalError{Code: resp.Code, Detail: resp.Error}
		}
		var ev daemon.Epoch
		if resp.Result != nil {
			if err := json.Unmarshal(resp.Result, &ev); err != nil {
				c.dropLocked()
				return fmt.Errorf("client: decoding epoch event: %w", err)
			}
		}
		if ev.Final {
			sawFinal = true
		}
		if !handler(ev) {
			c.dropLocked()
			return nil
		}
		if sawFinal {
			c.dropLocked()
			return nil
		}
	}
}
