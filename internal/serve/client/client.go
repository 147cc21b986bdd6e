// Package client is the retrying dtexld client: decorrelated-jitter
// backoff, deadline-aware retries, Retry-After honored as a floor (never
// an exact wait, so a recovering server is not hit by a synchronized
// retry wave) and a circuit breaker that trips on consecutive
// stall/timeout responses — the failure classes that mean the server is
// sick rather than merely busy.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dtexl/internal/serve"
)

// ErrCircuitOpen is returned without touching the network while the
// breaker is open: the server has answered with consecutive
// stall/timeout failures and hammering it helps no one.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// APIError is a non-200 response from the service, carrying the parsed
// structured body (including a stall state dump when Kind is "stall").
type APIError struct {
	Status int
	Body   serve.ErrorResponse
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Body.Kind, e.Body.Error)
}

// IsStall reports whether the failure carries an executor stall dump.
func (e *APIError) IsStall() bool { return e.Body.Kind == serve.KindStall }

// Config tunes a Client. Zero fields take the documented defaults.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8095".
	BaseURL string
	// HTTP is the underlying transport (default http.DefaultClient).
	HTTP *http.Client
	// Token, when set, is sent as "Authorization: Bearer <token>" on
	// every request — required when the server runs with -auth-token.
	Token string
	// MaxRetries is how many times a retryable failure is retried beyond
	// the first attempt (default 4; negative means never retry).
	MaxRetries int
	// BaseBackoff seeds the decorrelated-jitter schedule (default 100ms):
	// each wait is drawn uniformly from [base, min(3×previous, MaxBackoff)]
	// (MaxBackoff default 5s), so retries from a fleet of clients spread
	// out instead of pulsing in synchronized exponential waves.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold trips the circuit after this many *consecutive*
	// stall/timeout failures (default 5). Shed responses (429/503) are
	// busy, not sick — they back off but never trip the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the open circuit rejects calls before
	// allowing a half-open probe (default 10s).
	BreakerCooldown time.Duration
	// rand returns a uniform float64 in [0,1) for jitter; tests inject a
	// deterministic source.
	rand func() float64
	// now is the clock; tests inject a fake.
	now func() time.Time
	// sleep waits cancellably; tests observe requested backoffs.
	sleep func(ctx context.Context, d time.Duration) error
}

// Client is safe for concurrent use; the breaker state is shared, which
// is the point — any goroutine's consecutive failures protect them all.
type Client struct {
	cfg Config

	mu          sync.Mutex
	consecutive int       // consecutive stall/timeout failures
	openUntil   time.Time // breaker open until this instant
	probing     bool      // a half-open probe is in flight
}

// New builds a Client for the service at baseURL.
func New(baseURL string, opts ...func(*Config)) *Client {
	cfg := Config{BaseURL: baseURL}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.rand == nil {
		cfg.rand = rand.Float64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Client{cfg: cfg}
}

// Simulate runs one (benchmark, policy) cell through the service,
// retrying shed and transient failures under ctx's deadline.
func (c *Client) Simulate(ctx context.Context, req serve.SimRequest) (*serve.SimResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var last error
	prev := c.cfg.BaseBackoff // decorrelated-jitter state: the last wait
	for attempt := 0; ; attempt++ {
		if err := c.breakerAllow(); err != nil {
			if last != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, last)
			}
			return nil, err
		}
		resp, err := c.once(ctx, body)
		outcome := classify(err)
		c.breakerRecord(outcome)
		if err == nil {
			return resp, nil
		}
		last = err
		if outcome == outcomePermanent || ctx.Err() != nil || attempt >= c.cfg.MaxRetries {
			return nil, last
		}
		d, err := c.backoff(ctx, prev, last)
		if err != nil {
			// The deadline leaves no room for another attempt: surface the
			// last real failure, not the sleep's cancellation.
			return nil, fmt.Errorf("client: deadline while backing off: %w", last)
		}
		prev = d
	}
}

// Ready fetches /readyz (any status), for probes and load harnesses.
func (c *Client) Ready(ctx context.Context) (*serve.ReadyState, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/readyz", nil)
	if err != nil {
		return nil, 0, err
	}
	c.authorize(hreq)
	hres, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hres.Body.Close()
	var st serve.ReadyState
	if err := json.NewDecoder(hres.Body).Decode(&st); err != nil {
		return nil, hres.StatusCode, err
	}
	return &st, hres.StatusCode, nil
}

// once performs a single HTTP attempt.
func (c *Client) once(ctx context.Context, body []byte) (*serve.SimResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.authorize(hreq)
	hres, err := c.cfg.HTTP.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	raw, err := readBody(hres)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode == http.StatusOK {
		var out serve.SimResponse
		if _, err := decode(raw, &out); err != nil {
			return nil, fmt.Errorf("client: bad 200 body: %w", err)
		}
		return &out, nil
	}
	apiErr := &APIError{Status: hres.StatusCode}
	if err := json.Unmarshal(raw, &apiErr.Body); err != nil {
		apiErr.Body = serve.ErrorResponse{Error: string(raw), Kind: serve.KindInternal}
	}
	if ra := hres.Header.Get("Retry-After"); ra != "" && apiErr.Body.RetryAfterMS == 0 {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil {
			apiErr.Body.RetryAfterMS = secs * 1000
		}
	}
	return nil, apiErr
}

// maxBody bounds the bytes read from one response.
const maxBody = 64 << 20

// readBody reads a response body of at most maxBody bytes: into one
// buffer of exactly the announced size when the server sent a
// Content-Length (the service does for 200 bodies), else by io.ReadAll.
func readBody(hres *http.Response) ([]byte, error) {
	if n := hres.ContentLength; n >= 0 && n <= maxBody {
		raw := make([]byte, n)
		if _, err := io.ReadFull(hres.Body, raw); err != nil {
			return nil, err
		}
		return raw, nil
	}
	return io.ReadAll(io.LimitReader(hres.Body, maxBody))
}

// outcome classifies one attempt for retry and breaker decisions.
type outcome int

const (
	outcomeOK outcome = iota
	// outcomeShed: the server is protecting itself (429, draining 503).
	// Retryable with backoff; not a breaker event.
	outcomeShed
	// outcomeSick: stall or timeout — the failure classes that trip the
	// breaker when consecutive. Retryable.
	outcomeSick
	// outcomeTransient: network-level failure; retryable, no breaker.
	outcomeTransient
	// outcomePermanent: 4xx misuse or an unrecognized 5xx; not retried.
	outcomePermanent
)

func classify(err error) outcome {
	if err == nil {
		return outcomeOK
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Body.Kind {
		case serve.KindOverCapacity, serve.KindDraining, serve.KindCanceled:
			return outcomeShed
		case serve.KindStall, serve.KindTimeout:
			return outcomeSick
		case serve.KindBadRequest:
			return outcomePermanent
		default:
			return outcomePermanent
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Our own context died mid-request; the caller's deadline rules.
		return outcomePermanent
	}
	return outcomeTransient // connection refused/reset, etc.
}

// backoff sleeps the decorrelated-jitter schedule: a wait drawn
// uniformly from [base, min(3×prev, max)], floored at the server's
// Retry-After hint PLUS jitter — the hint is when the server wants
// traffic back at the earliest, not an appointment, and adding jitter
// on top keeps a fleet of clients from arriving as one synchronized
// wave the moment a recovering server reopens. Never sleeps past ctx's
// deadline. Returns the wait chosen, which seeds the next call's prev.
func (c *Client) backoff(ctx context.Context, prev time.Duration, lastErr error) (time.Duration, error) {
	u := c.cfg.rand()
	hi := 3 * prev
	if hi > c.cfg.MaxBackoff || hi <= 0 {
		hi = c.cfg.MaxBackoff
	}
	if hi < c.cfg.BaseBackoff {
		hi = c.cfg.BaseBackoff
	}
	d := c.cfg.BaseBackoff + time.Duration(u*float64(hi-c.cfg.BaseBackoff))
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.Body.RetryAfterMS > 0 {
		ra := time.Duration(apiErr.Body.RetryAfterMS) * time.Millisecond
		if floor := ra + time.Duration(u*float64(c.cfg.BaseBackoff)); floor > d {
			d = floor
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain <= d {
			// No room to back off and attempt again.
			return d, context.DeadlineExceeded
		}
	}
	return d, c.cfg.sleep(ctx, d)
}

// breakerAllow gates an attempt on the circuit state. While open it
// fails fast; once the cooldown passes exactly one caller is admitted
// as the half-open probe.
func (c *Client) breakerAllow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openUntil.IsZero() {
		return nil
	}
	if c.cfg.now().Before(c.openUntil) {
		return ErrCircuitOpen
	}
	if c.probing {
		return ErrCircuitOpen // another goroutine already holds the probe
	}
	c.probing = true
	return nil
}

// breakerRecord folds one attempt's outcome into the circuit state.
func (c *Client) breakerRecord(o outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	probe := c.probing
	c.probing = false
	switch o {
	case outcomeSick:
		c.consecutive++
		if probe || c.consecutive >= c.cfg.BreakerThreshold {
			// A failed probe re-opens immediately; threshold crossings
			// open for the cooldown.
			c.openUntil = c.cfg.now().Add(c.cfg.BreakerCooldown)
		}
	case outcomeOK:
		c.consecutive = 0
		c.openUntil = time.Time{}
	default:
		// Shed/transient/permanent outcomes neither heal nor sicken the
		// breaker: the server's health is unknown.
		if probe {
			// The probe didn't prove health; stay open for another cooldown.
			c.openUntil = c.cfg.now().Add(c.cfg.BreakerCooldown)
		}
	}
}

// State reports the breaker's instantaneous view (for logs and tests).
func (c *Client) State() (consecutiveFailures int, open bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consecutive, !c.openUntil.IsZero() && c.cfg.now().Before(c.openUntil)
}

// WithHTTP sets the transport.
func WithHTTP(h *http.Client) func(*Config) { return func(c *Config) { c.HTTP = h } }

// WithToken sends the bearer token on every request.
func WithToken(tok string) func(*Config) { return func(c *Config) { c.Token = tok } }

// authorize attaches the bearer token, when configured.
func (c *Client) authorize(req *http.Request) {
	if c.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.Token)
	}
}

// WithRetries sets the retry budget.
func WithRetries(n int) func(*Config) { return func(c *Config) { c.MaxRetries = n } }

// WithBackoff sets the backoff schedule bounds.
func WithBackoff(base, max time.Duration) func(*Config) {
	return func(c *Config) { c.BaseBackoff, c.MaxBackoff = base, max }
}

// WithBreaker sets the circuit-breaker threshold and cooldown.
func WithBreaker(threshold int, cooldown time.Duration) func(*Config) {
	return func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = threshold, cooldown }
}
