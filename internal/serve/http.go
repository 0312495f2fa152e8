package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
)

// Response headers exposing the admission decision: the content address of
// the run and how this request was satisfied (hit, miss, coalesced).
const (
	HeaderCacheKey = "X-Cpmserve-Key"
	HeaderCache    = "X-Cpmserve-Cache"
)

// Handler returns the server's HTTP mux:
//
//	POST /v1/run       — run (or fetch) a simulation; ?stream=1 or
//	                     "stream":true selects the NDJSON epoch stream
//	GET  /v1/scenarios — list the canonical scenario names
//	GET  /v1/stats     — admission counters (JSON)
//	GET  /healthz      — 200 ok, 503 once draining
//	GET  /metrics      — Prometheus text exposition of the registry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// retryAfter is the client back-off, in the whole seconds the Retry-After
// header speaks, advertised on 429 and 503 responses.
const retryAfter = "1"

// writeJSONError emits the uniform error document. Retry hints go on the
// admission-pressure codes.
func (s *Server) writeJSONError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
	s.m.requests.With(strconv.Itoa(code)).Inc()
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	raw, err := DecodeRequest(r.Body)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		raw.Stream = true
	}
	req, sc, err := raw.Resolve()
	if err != nil {
		code := http.StatusBadRequest
		// An unknown scenario is an absent resource, not a malformed request.
		if strings.Contains(err.Error(), "unknown scenario") {
			code = http.StatusNotFound
		}
		s.writeJSONError(w, code, err.Error())
		return
	}

	j, outcome, serr := s.submit(req, sc)
	if serr != nil {
		s.writeJSONError(w, serr.code, serr.msg)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client left; the run (if any) continues and lands in the
		// cache for the next identical request.
		s.m.requests.With("499").Inc()
		return
	}
	if j.err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, j.err.Error())
		return
	}

	w.Header().Set(HeaderCacheKey, j.key)
	w.Header().Set(HeaderCache, outcome)
	body := j.res.body
	ctype := "application/json"
	if req.Stream {
		body = j.res.ndjson
		ctype = "application/x-ndjson"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	s.m.requests.With("200").Inc()
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"scenarios": check.ScenarioNames()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Stats().Draining {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// A mid-stream write error means the client left; nothing to recover.
	_ = s.reg.WritePrometheus(w)
}
