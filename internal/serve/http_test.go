package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRetryAfterIsOneSecond: the admission-pressure codes advertise a
// one-second back-off; other errors carry no retry hint.
func TestRetryAfterIsOneSecond(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	defer srv.Close()
	for _, tc := range []struct {
		code int
		want string
	}{
		{http.StatusTooManyRequests, "1"},
		{http.StatusServiceUnavailable, "1"},
		{http.StatusBadRequest, ""},
	} {
		rec := httptest.NewRecorder()
		srv.writeJSONError(rec, tc.code, "refused")
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("%d: Retry-After %q, want %q", tc.code, got, tc.want)
		}
	}
}

// The draining health probe advertises the same back-off.
func TestHealthzDrainingRetryAfterHeader(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	defer srv.Close()
	go srv.Drain()
	// Drain flips the stats flag before waiting on workers; poll until the
	// probe observes it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		srv.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusServiceUnavailable {
			if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Fatalf("draining healthz Retry-After = %q, want \"1\"", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
}
