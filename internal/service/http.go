package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// maxRequestBytes bounds a job submission body; CDCGs are small (the
// paper's biggest benchmark is a few thousand packets), so 8 MiB is
// generous.
const maxRequestBytes = 8 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a Request; 202 (queued) or 200 (cache hit)
//	GET    /v1/jobs/{id}        job status, including the result when done
//	DELETE /v1/jobs/{id}        cancel: queued jobs never compute, running
//	                            searches stop at their next context poll
//	GET    /v1/jobs/{id}/events server-sent events: progress + final done
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
//
// Every route runs behind the obs middleware: requests carry an
// X-Request-ID (accepted from the client or minted), responses echo it,
// access lines go to the structured log, and responses count into
// nocd_http_requests_total by status code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return obs.WrapHTTP(mux, obs.HTTPOptions{
		Logger:   s.log,
		Now:      s.now,
		Requests: s.httpRequests,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	j, err := s.submit(&req, obs.RequestID(r.Context()))
	switch {
	case err == nil:
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // served from the cache
	}
	writeJSON(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams job progress as server-sent events and closes the
// stream with one final "done" event carrying the terminal status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := j.subscribe()
	defer j.unsubscribe(sub)
	s.sseSubs.Inc()
	defer s.sseSubs.Dec()
	writeEvent := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for {
		select {
		case ev := <-sub:
			if ev.Type == "done" {
				continue // the Done() arm emits the authoritative final event
			}
			if !writeEvent(ev) {
				return
			}
		case <-j.Done():
			// Drain any progress events that raced the finish, then emit
			// the terminal status and end the stream.
			for drained := false; !drained; {
				select {
				case ev := <-sub:
					if ev.Type != "done" && !writeEvent(ev) {
						return
					}
				default:
					drained = true
				}
			}
			st := j.Status()
			writeEvent(Event{Type: "done", RequestID: j.requestID, Job: &st})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves the metric registry as Prometheus text
// exposition (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.reg.WritePrometheus(w)
}
