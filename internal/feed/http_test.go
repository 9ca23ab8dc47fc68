package feed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"phideep/internal/data"
	"phideep/internal/tensor"
)

func post(t *testing.T, srv *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func get(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHandlerLeaseProtocol(t *testing.T) {
	d := data.NewDigits(16, 60, 3, 0.01)
	f, err := NewLabeled(d, Config{
		Plan:        mustPlan(t, 60, 10, 20),
		TotalChunks: 4, Window: 1, Ledger: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	var sub struct {
		Shard int `json:"shard"`
	}
	if resp := post(t, srv, "/subscribe", map[string]string{"name": "ext"}, &sub); resp.StatusCode != 200 {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}

	var l Lease
	if resp := post(t, srv, "/lease", map[string]int{"shard": sub.Shard}, &l); resp.StatusCode != 200 {
		t.Fatalf("lease status %d", resp.StatusCode)
	}
	if l.Seq != 0 || l.N != 20 || l.Start != 0 {
		t.Fatalf("lease %+v", l)
	}

	// Window 1: a second lease before commit is refused with 409.
	if resp := post(t, srv, "/lease", map[string]int{"shard": sub.Shard}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("window-full status %d", resp.StatusCode)
	}

	// The data channel serves the outstanding lease, with labels.
	var chunk struct {
		Seq    int         `json:"seq"`
		Start  int         `json:"start"`
		Rows   [][]float64 `json:"rows"`
		Labels []int       `json:"labels"`
	}
	if resp := get(t, srv, fmt.Sprintf("/chunk?shard=%d&seq=%d", l.Shard, l.Seq), &chunk); resp.StatusCode != 200 {
		t.Fatalf("chunk status %d", resp.StatusCode)
	}
	if len(chunk.Rows) != 20 || len(chunk.Labels) != 20 {
		t.Fatalf("chunk geometry: %d rows, %d labels", len(chunk.Rows), len(chunk.Labels))
	}
	want := tensor.NewMatrix(20, d.Dim())
	d.Chunk(l.Start, 20, want)
	for i, row := range chunk.Rows {
		if !tensor.EqualVec(tensor.Vector(row), tensor.Vector(want.RowView(i)), 0) {
			t.Fatalf("row %d differs from direct Chunk", i)
		}
		if chunk.Labels[i] != d.Label((l.Start+i)%60) {
			t.Fatalf("label %d differs", i)
		}
	}

	if resp := post(t, srv, "/commit", map[string]any{"shard": sub.Shard, "seq": l.Seq, "at": 1.5}, nil); resp.StatusCode != 200 {
		t.Fatalf("commit status %d", resp.StatusCode)
	}
	// Committed lease no longer serves data.
	if resp := get(t, srv, fmt.Sprintf("/chunk?shard=%d&seq=%d", l.Shard, l.Seq), nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("chunk after commit status %d", resp.StatusCode)
	}

	// Seek then drain to the horizon: 410 Gone.
	if resp := post(t, srv, "/seek", map[string]int{"shard": sub.Shard, "ordinal": 3}, nil); resp.StatusCode != 200 {
		t.Fatalf("seek status %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/lease", map[string]int{"shard": sub.Shard}, &l); resp.StatusCode != 200 {
		t.Fatalf("post-seek lease status %d", resp.StatusCode)
	}
	if l.Seq != 3 {
		t.Fatalf("post-seek lease %+v", l)
	}
	post(t, srv, "/commit", map[string]any{"shard": sub.Shard, "seq": l.Seq}, nil)
	if resp := post(t, srv, "/lease", map[string]int{"shard": sub.Shard}, nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("exhausted status %d", resp.StatusCode)
	}

	var stats Stats
	if resp := get(t, srv, "/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.Leases != 2 || stats.Commits != 2 || stats.Seeks != 1 {
		t.Fatalf("stats %+v", stats)
	}
	var ledger []Event
	if resp := get(t, srv, "/ledger", &ledger); resp.StatusCode != 200 {
		t.Fatalf("ledger status %d", resp.StatusCode)
	}
	if len(ledger) == 0 {
		t.Fatal("empty ledger")
	}

	if resp := post(t, srv, "/close", map[string]int{"shard": sub.Shard}, nil); resp.StatusCode != 200 {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/lease", map[string]int{"shard": sub.Shard}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("lease on closed consumer status %d", resp.StatusCode)
	}
}

func TestHandlerErrors(t *testing.T) {
	f, err := New(data.Null{D: 2, N: 40}, Config{Plan: mustPlan(t, 40, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	// Unknown shard.
	if resp := post(t, srv, "/lease", map[string]int{"shard": 9}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown shard status %d", resp.StatusCode)
	}
	// Malformed body.
	resp, err := srv.Client().Post(srv.URL+"/lease", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}
	// Bad chunk query.
	if resp := get(t, srv, "/chunk?shard=x&seq=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d", resp.StatusCode)
	}
}

// TestHandlerBodyLimit: a request body past the cap is refused with 413
// before it is decoded in full, on every POST verb, and the handler keeps
// serving afterwards.
func TestHandlerBodyLimit(t *testing.T) {
	f, err := New(data.Null{D: 2, N: 40}, Config{Plan: mustPlan(t, 40, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	huge := append([]byte(`{"name": "`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
	huge = append(huge, `"}`...)
	for _, path := range []string{"/subscribe", "/lease", "/commit", "/seek", "/close"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status %d", path, resp.StatusCode)
		}
	}
	if f.Stats().Consumers != 0 {
		t.Fatal("an oversized subscribe registered a consumer")
	}
	var sub struct {
		Shard int `json:"shard"`
	}
	if resp := post(t, srv, "/subscribe", map[string]string{"name": "ok"}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe after oversized bodies: status %d", resp.StatusCode)
	}
}

func mustPlan(t *testing.T, srcLen, batch, chunk int) data.ChunkPlan {
	t.Helper()
	p, err := data.PlanChunks(data.PlanRequest{SourceLen: srcLen, Batch: batch, ChunkExamples: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
