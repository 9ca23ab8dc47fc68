package feed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"phideep/internal/tensor"
)

// Handler exposes a feed over HTTP with the same lease protocol the
// in-process consumers speak — `datagen -serve` mounts it so external
// tools can subscribe, stream chunks, and inspect the ledger.
//
//	POST /subscribe {"name": "node0"}        → {"shard": 0}
//	POST /lease     {"shard": 0}             → Lease (409 window full, 410 exhausted)
//	POST /commit    {"shard", "seq", "at", "skipped"} → {"ok": true}
//	POST /seek      {"shard", "ordinal"}     → {"ok": true}
//	POST /close     {"shard"}                → {"ok": true}
//	GET  /chunk?shard=S&seq=Q                → {"rows": [[...]...], "labels": [...]}
//	GET  /stats                              → Stats
//	GET  /ledger                             → []Event
func Handler(f *Feed) http.Handler {
	h := &server{f: f, byShard: map[int]*Consumer{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /subscribe", h.subscribe)
	mux.HandleFunc("POST /lease", h.lease)
	mux.HandleFunc("POST /commit", h.commit)
	mux.HandleFunc("POST /seek", h.seek)
	mux.HandleFunc("POST /close", h.close)
	mux.HandleFunc("GET /chunk", h.chunk)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /ledger", h.ledger)
	return mux
}

type server struct {
	f  *Feed
	mu sync.Mutex
	// byShard resolves wire shard indices back to in-process consumers.
	byShard map[int]*Consumer
}

type wireReq struct {
	Name    string  `json:"name"`
	Shard   int     `json:"shard"`
	Seq     int     `json:"seq"`
	Ordinal int     `json:"ordinal"`
	At      float64 `json:"at"`
	Skipped bool    `json:"skipped"`
}

// maxBodyBytes caps a request body. Every wire request is a handful of
// scalar fields, so this is far above any legitimate one.
const maxBodyBytes = 64 << 10

func (s *server) decode(w http.ResponseWriter, r *http.Request, req *wireReq) bool {
	req.Shard = -1
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req); err != nil {
		code := http.StatusBadRequest
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpErr(w, code, fmt.Errorf("feed: bad request body: %w", err))
		return false
	}
	return true
}

// consumer resolves a wire shard to its consumer.
func (s *server) consumer(shard int) (*Consumer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byShard[shard]
	if !ok {
		return nil, fmt.Errorf("feed: shard %d not subscribed over this handler", shard)
	}
	return c, nil
}

func (s *server) subscribe(w http.ResponseWriter, r *http.Request) {
	var req wireReq
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.f.Subscribe(req.Name)
	if err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	s.mu.Lock()
	s.byShard[c.Shard()] = c
	s.mu.Unlock()
	writeJSON(w, map[string]int{"shard": c.Shard()})
}

func (s *server) lease(w http.ResponseWriter, r *http.Request) {
	var req wireReq
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.consumer(req.Shard)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	l, err := c.Lease()
	switch {
	case errors.Is(err, ErrWindowFull):
		httpErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrExhausted):
		httpErr(w, http.StatusGone, err)
	case err != nil:
		httpErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, l)
	}
}

func (s *server) commit(w http.ResponseWriter, r *http.Request) {
	var req wireReq
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.consumer(req.Shard)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	if err := c.Commit(Lease{Seq: req.Seq, Shard: req.Shard}, req.At, req.Skipped); err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *server) seek(w http.ResponseWriter, r *http.Request) {
	var req wireReq
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.consumer(req.Shard)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	if err := c.Seek(req.Ordinal); err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *server) close(w http.ResponseWriter, r *http.Request) {
	var req wireReq
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.consumer(req.Shard)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	c.Close()
	writeJSON(w, map[string]bool{"ok": true})
}

// chunk streams the payload of an outstanding lease: the protocol's data
// channel, gated on the lease the same way in-process Fill is.
func (s *server) chunk(w http.ResponseWriter, r *http.Request) {
	shard, err1 := strconv.Atoi(r.URL.Query().Get("shard"))
	seq, err2 := strconv.Atoi(r.URL.Query().Get("seq"))
	if err1 != nil || err2 != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("feed: chunk wants integer shard and seq"))
		return
	}
	c, err := s.consumer(shard)
	if err != nil {
		httpErr(w, http.StatusNotFound, err)
		return
	}
	plan := c.Plan()
	l := Lease{
		Seq: seq, Shard: shard, Ordinal: seq / max(s.f.Shards(), 1),
		Start: plan.ChunkStart(seq), N: plan.ChunkExamples,
	}
	m := tensor.NewMatrix(l.N, s.f.Dim())
	if err := s.f.Fill(l, m); err != nil {
		httpErr(w, http.StatusConflict, err)
		return
	}
	resp := struct {
		Seq    int         `json:"seq"`
		Start  int         `json:"start"`
		Rows   [][]float64 `json:"rows"`
		Labels []int       `json:"labels,omitempty"`
	}{Seq: seq, Start: l.Start, Rows: make([][]float64, l.N)}
	for i := 0; i < l.N; i++ {
		resp.Rows[i] = m.RowView(i)
	}
	if s.f.Labeled() {
		// The wire carries class indices; one-hot expansion is the
		// consumer's business.
		labels, err := s.f.Labels(l)
		if err != nil {
			httpErr(w, http.StatusConflict, err)
			return
		}
		resp.Labels = labels
	}
	writeJSON(w, resp)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.f.Stats()) }

func (s *server) ledger(w http.ResponseWriter, r *http.Request) {
	ev := s.f.Events()
	if ev == nil {
		ev = []Event{}
	}
	writeJSON(w, ev)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the client sees a truncated body.
		return
	}
}

func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
