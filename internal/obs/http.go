package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// DebugState is one snapshot served by Handler: the currently open spans
// (the live "span stack" — a forest when par workers are running, sorted
// ancestors-first).
type DebugState struct {
	AtNS   int64      `json:"at_ns"` // monotonic offset from the tracer epoch
	Active []SpanData `json:"active"`
}

// Handler serves the live observability state of a run — the /debug/obs
// endpoint of alsrun's -pprof-http server. A plain GET returns one
// DebugState as JSON; with ?stream=<duration> it streams one JSON line
// per interval (minimum 50ms) until the client disconnects, so `curl
// -N :6060/debug/obs?stream=250ms` tails the span stack of a running
// synthesis. t may be nil; the span list is then empty.
func Handler(t *Tracer) http.Handler {
	state := func() DebugState {
		st := DebugState{Active: t.ActiveSpans()}
		if t != nil {
			st.AtNS = time.Since(t.epoch).Nanoseconds()
		}
		return st
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stream := r.URL.Query().Get("stream")
		if stream == "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(state())
			return
		}
		every, err := time.ParseDuration(stream)
		if err != nil {
			http.Error(w, "bad stream interval: "+err.Error(), http.StatusBadRequest)
			return
		}
		if every < 50*time.Millisecond {
			every = 50 * time.Millisecond
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			if err := enc.Encode(state()); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
		}
	})
}
