package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoPayload is the round-trip body of the client tests.
type echoPayload struct {
	N   int    `json:"n"`
	Msg string `json:"msg"`
}

// startServer serves h on a loopback port and returns the base URL.
func startServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return "http://" + srv.Addr().String()
}

func TestClientPostJSONRoundTrip(t *testing.T) {
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in echoPayload
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		in.N++
		json.NewEncoder(w).Encode(in) //nolint:errcheck
	}))
	c := NewClient()
	var out echoPayload
	if err := c.PostJSON(context.Background(), url+"/echo", echoPayload{N: 41, Msg: "hi"}, &out); err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	if out.N != 42 || out.Msg != "hi" {
		t.Fatalf("round trip returned %+v", out)
	}
}

// TestClientRetries5xx: the identical body is re-sent until the server
// recovers, within the retry budget.
func TestClientRetries5xx(t *testing.T) {
	var calls atomic.Int64
	var lastBody atomic.Value
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in echoPayload
		json.NewDecoder(r.Body).Decode(&in) //nolint:errcheck
		lastBody.Store(in)
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, 503)
			return
		}
		fmt.Fprint(w, `{"n":1}`)
	}))
	c := NewClient()
	c.SetRetry(3, time.Millisecond)
	var out echoPayload
	if err := c.PostJSON(context.Background(), url, echoPayload{N: 7, Msg: "same"}, &out); err != nil {
		t.Fatalf("PostJSON after transient 503s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if got := lastBody.Load().(echoPayload); got != (echoPayload{N: 7, Msg: "same"}) {
		t.Fatalf("retried attempt carried a different body: %+v", got)
	}
}

// TestClient4xxIsFinal: a rejection is returned immediately as a
// *StatusError carrying the peer's decoded error message.
func TestClient4xxIsFinal(t *testing.T) {
	var calls atomic.Int64
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"wrong run"}`, 409)
	}))
	c := NewClient()
	c.SetRetry(5, time.Millisecond)
	err := c.PostJSON(context.Background(), url, echoPayload{}, nil)
	var serr *StatusError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if serr.Status != 409 || serr.Message != "wrong run" {
		t.Fatalf("StatusError = %+v", serr)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts for a 4xx, want 1", got)
	}
}

// TestClientRetryBudgetExhausted: a persistent 5xx eventually surfaces
// as an error wrapping the StatusError, after retries+1 attempts.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", 500)
	}))
	c := NewClient()
	c.SetRetry(2, time.Millisecond)
	err := c.PostJSON(context.Background(), url, echoPayload{}, nil)
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != 500 {
		t.Fatalf("err = %v, want wrapped 500 StatusError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestClientTransportErrorRetried: connection refused is retryable —
// here the peer never exists, so the budget drains and the dial error
// surfaces.
func TestClientTransportErrorRetried(t *testing.T) {
	c := NewClient()
	c.SetRetry(1, time.Millisecond)
	start := time.Now()
	err := c.PostJSON(context.Background(), "http://127.0.0.1:1/never", echoPayload{}, nil)
	if err == nil {
		t.Fatal("POST to a dead port succeeded")
	}
	if !strings.Contains(err.Error(), "httpd: POST") {
		t.Fatalf("transport error lost its context: %v", err)
	}
	// One backoff pause between the two attempts, nothing pathological.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("2 attempts against a dead port took %v", elapsed)
	}
}

// TestClientContextCancelStopsRetrying: cancellation mid-backoff wins
// over the retry budget and reports the last attempt's error.
func TestClientContextCancelStopsRetrying(t *testing.T) {
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", 500)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	c := NewClient()
	c.SetRetry(100, time.Hour) // without cancellation this would sleep forever
	// Cancel as the first attempt's response arrives: the attempt has
	// completed, so there is a last error to report, and the client is
	// about to sleep, however slow the host.
	c.SetTransport(cancelOnResponse{c.Transport(), cancel})
	done := make(chan error, 1)
	go func() { done <- c.PostJSON(ctx, url, echoPayload{}, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "last attempt") {
			t.Fatalf("cancellation dropped the last attempt's error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// cancelOnResponse is a transport that runs cancel after each round
// trip returns.
type cancelOnResponse struct {
	rt     http.RoundTripper
	cancel context.CancelFunc
}

func (c cancelOnResponse) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	c.cancel()
	return resp, err
}

// TestClientBadResponseBodyIsFinal: a 2xx with a non-JSON body is a
// decode error, not a retry.
func TestClientBadResponseBodyIsFinal(t *testing.T) {
	var calls atomic.Int64
	url := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, "not json")
	}))
	c := NewClient()
	c.SetRetry(5, time.Millisecond)
	var out echoPayload
	err := c.PostJSON(context.Background(), url, echoPayload{}, &out)
	if err == nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("err = %v, want decode error", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts for a decode error, want 1", got)
	}
}

// TestClientDecodeErrorBody: the {"error": ...} convention is decoded,
// anything else falls back to a bounded raw prefix.
func TestClientDecodeErrorBody(t *testing.T) {
	if got := decodeErrorBody([]byte(`{"error":"boom"}`)); got != "boom" {
		t.Errorf("decodeErrorBody(json) = %q", got)
	}
	if got := decodeErrorBody([]byte("  plain text\n")); got != "plain text" {
		t.Errorf("decodeErrorBody(text) = %q", got)
	}
	long := strings.Repeat("x", 500)
	if got := decodeErrorBody([]byte(long)); len(got) > 200 {
		t.Errorf("decodeErrorBody(long) kept %d bytes, want <= 200", len(got))
	}
}

// TestShutdownIdempotent: the second Shutdown returns the first's
// verdict instead of hanging on the drained error channel.
func TestShutdownIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 2)
	go func() { done <- srv.Shutdown(time.Second) }()
	go func() { done <- srv.Shutdown(time.Second) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Shutdown #%d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("second Shutdown hung")
		}
	}
}
