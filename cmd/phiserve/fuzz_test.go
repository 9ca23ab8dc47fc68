package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"phideep"
)

// FuzzInferHandler posts arbitrary bodies to the inference endpoints
// through the production mux of one of two servers, picked by the fuzz
// input along with the endpoint: an f64 autoencoder and an f32 MLP, so
// the replica sees the bodies at both precisions.
// Whatever the body, the handler must not panic and must answer 200, 400
// (bad JSON, wrong width, an op the model lacks), 413 (oversized) or 422
// (an input that drives an output non-finite), never a 5xx; a 200 must
// carry an output of the endpoint's width with every value finite.
func FuzzInferHandler(f *testing.F) {
	acfg := phideep.AutoencoderConfig{Visible: 12, Hidden: 5, Seed: 7}
	ae, err := phideep.NewServer(phideep.ServeAutoencoder(acfg, nil), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ae.Close)
	mcfg := phideep.MLPConfig{Sizes: []int{acfg.Visible, 6, 4}, Seed: 7}
	mlp, err := phideep.NewServer(phideep.ServeMLP(mcfg, nil), phideep.ServeConfig{
		Level: phideep.Improved, Precision: phideep.PrecisionF32, MaxBatch: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mlp.Close)
	aeMux, mlpMux := newMux(ae, time.Now()), newMux(mlp, time.Now())
	endpoints := []struct {
		mux   http.Handler
		path  string
		width int // 0: the model has no such op
	}{
		{aeMux, "/encode", acfg.Hidden}, {aeMux, "/reconstruct", acfg.Visible}, {aeMux, "/predict", 0},
		{mlpMux, "/encode", 0}, {mlpMux, "/reconstruct", 0}, {mlpMux, "/predict", mcfg.Sizes[2]},
	}

	valid, err := json.Marshal(inferRequest{Input: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 0.5}})
	if err != nil {
		f.Fatal(err)
	}
	// The valid seed must reach both forward passes, or no 200 is fuzzed.
	for _, e := range endpoints {
		if e.width == 0 {
			continue
		}
		rec := httptest.NewRecorder()
		e.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, bytes.NewReader(valid)))
		if rec.Code != http.StatusOK {
			f.Fatalf("%s: valid seed answered %d", e.path, rec.Code)
		}
	}
	huge := []byte(`{"input":[1e308,-1e308,1e308,-1e308,1e308,-1e308,1e308,-1e308,1e308,-1e308,1e308,-1e308]}`)
	for ep := range endpoints {
		f.Add(uint8(ep), valid)
		f.Add(uint8(ep), huge)
	}
	for _, body := range []string{
		``, `null`, `{}`, `[]`, `{not json`, `{"input":null}`, `{"input":"x"}`,
		`{"input":[1,2,3]}`, `{"input":[NaN]}`, `{"input":[1e999]}`, `{"input":[]}`,
		`{"input":[0,0,0,0,0,0,0,0,0,0,0,0]} trailing`, `{"input":[0,0,0,0,0,0,0,0,0,0,0,0],"input":[1]}`,
	} {
		f.Add(uint8(0), []byte(body))
	}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		e := endpoints[int(ep)%len(endpoints)]
		rec := httptest.NewRecorder()
		e.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp inferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %q: 200 with unreadable body: %v", e.path, body, err)
			}
			if e.width == 0 || len(resp.Output) != e.width {
				t.Fatalf("%s %q: 200 with %d outputs, want %d", e.path, body, len(resp.Output), e.width)
			}
			for i, v := range resp.Output {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %q: 200 with output[%d] = %v", e.path, body, i, v)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s %q: status %d, want 200, 400, 413 or 422", e.path, body, rec.Code)
		}
	})
}
