package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Wire types of the coordinator's work-pull protocol. All endpoints are
// JSON over POST (stats is GET); workers identify themselves by name in
// every request — there is no session state beyond the leases themselves,
// so a worker reconnecting after a network partition just keeps calling.

type registerRequest struct {
	Worker string `json:"worker"`
}

type registerResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the suggested heartbeat period (a third of the TTL).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

type leaseResponse struct {
	Items []Item `json:"items"`
	// PollMS is the suggested wait before the next lease call when Items
	// is empty.
	PollMS int64 `json:"poll_ms"`
}

type heartbeatRequest struct {
	Worker string   `json:"worker"`
	IDs    []string `json:"ids"`
}

type heartbeatResponse struct {
	// Lost lists leases the worker no longer holds; it should abandon
	// that work (the item has been requeued or finished elsewhere).
	Lost []string `json:"lost,omitempty"`
}

type completeRequest struct {
	Worker string          `json:"worker"`
	ID     string          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type completeResponse struct {
	// Accepted is false for stale reports (the lease had expired and the
	// item was re-granted or finished elsewhere).
	Accepted bool `json:"accepted"`
}

// Handler returns the coordinator's HTTP handler. The serving layer
// mounts it under /v1/cluster/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Register(req.Worker); err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		ttl := c.LeaseTTL()
		httpJSON(w, http.StatusOK, registerResponse{
			LeaseTTLMS:  ttl.Milliseconds(),
			HeartbeatMS: (ttl / 3).Milliseconds(),
		})
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decode(w, r, &req) {
			return
		}
		items, err := c.Lease(req.Worker, req.Max)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		httpJSON(w, http.StatusOK, leaseResponse{Items: items, PollMS: (250 * time.Millisecond).Milliseconds()})
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		lost, err := c.Heartbeat(req.Worker, req.IDs)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		httpJSON(w, http.StatusOK, heartbeatResponse{Lost: lost})
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decode(w, r, &req) {
			return
		}
		accepted, err := c.Complete(req.Worker, req.ID, req.Result, req.Error)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		httpJSON(w, http.StatusOK, completeResponse{Accepted: accepted})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		httpJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(v); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("cluster: decoding request: %w", err))
		return false
	}
	return true
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func httpErr(w http.ResponseWriter, code int, err error) {
	httpJSON(w, code, map[string]string{"error": err.Error()})
}
