package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phideep"
	"phideep/internal/autoencoder"
	"phideep/internal/mlp"
)

// serveHTTP serves m through the production mux on an httptest server;
// both close when the test ends.
func serveHTTP(t *testing.T, m *phideep.ServeModel, cfg phideep.ServeConfig) (*phideep.Server, *httptest.Server) {
	t.Helper()
	srv, err := phideep.NewServer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(newMux(srv, time.Now()))
	t.Cleanup(ts.Close)
	return srv, ts
}

// newAEServer serves a small autoencoder at Baseline (whose f64 replica
// is bit-identical to the host reference) and returns the host params for
// comparison.
func newAEServer(t *testing.T) (*httptest.Server, *autoencoder.Params) {
	t.Helper()
	cfg := phideep.AutoencoderConfig{Visible: 12, Hidden: 5, Seed: 7}
	p := autoencoder.NewParams(cfg, cfg.Seed)
	_, ts := serveHTTP(t, phideep.ServeAutoencoder(cfg, p), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
	})
	return ts, p
}

// oneShot sends every request on a connection of its own. A client that
// reuses connections can dial one for a request that a freed connection
// then serves; the spare connection sits unused, and http.Server.Shutdown
// waits 5 s before it counts such a connection as idle.
var oneShot = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func postInfer(t *testing.T, url string, input []float64) (*http.Response, inferResponse) {
	t.Helper()
	body, err := json.Marshal(inferRequest{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := oneShot.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestEncodeEndpoint(t *testing.T) {
	ts, p := newAEServer(t)
	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.1 * float64(i)
	}
	resp, got := postInfer(t, ts.URL+"/encode", x)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := make([]float64, 5)
	p.Encode(x, want)
	if len(got.Output) != len(want) {
		t.Fatalf("output length %d, want %d", len(got.Output), len(want))
	}
	for i := range want {
		if got.Output[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v (bitwise at Baseline)", i, got.Output[i], want[i])
		}
	}
	if got.Class != nil {
		t.Fatalf("encode response has class %d; classes belong to /predict", *got.Class)
	}
}

func TestReconstructEndpoint(t *testing.T) {
	ts, p := newAEServer(t)
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i%3) * 0.25
	}
	resp, got := postInfer(t, ts.URL+"/reconstruct", x)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := make([]float64, 12)
	p.Reconstruct(x, want, false)
	for i := range want {
		if got.Output[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v", i, got.Output[i], want[i])
		}
	}
}

func TestPredictEndpoint(t *testing.T) {
	cfg := phideep.MLPConfig{Sizes: []int{8, 6, 4}, Seed: 3}
	p := mlp.NewParams(cfg, cfg.Seed)
	_, ts := serveHTTP(t, phideep.ServeMLP(cfg, p), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
	})

	x := []float64{0.9, 0.1, 0.4, 0.2, 0.8, 0.3, 0.6, 0.5}
	resp, got := postInfer(t, ts.URL+"/predict", x)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := p.PredictProbs(cfg, x)
	for i := range want {
		if got.Output[i] != want[i] {
			t.Fatalf("probs[%d] = %v, want %v", i, got.Output[i], want[i])
		}
	}
	var sum float64
	for _, v := range got.Output {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if got.Class == nil || *got.Class != argmax(want) {
		t.Fatalf("class = %v, want %d", got.Class, argmax(want))
	}

	// The MLP server must reject autoencoder operations.
	resp, _ = postInfer(t, ts.URL+"/encode", x)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("encode on mlp: status %d, want 400", resp.StatusCode)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts, _ := newAEServer(t)

	// Unsupported op for the model.
	resp, _ := postInfer(t, ts.URL+"/predict", make([]float64, 12))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("predict on ae: status %d, want 400", resp.StatusCode)
	}
	// Wrong input dimension.
	resp, _ = postInfer(t, ts.URL+"/encode", make([]float64, 3))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d, want 400", resp.StatusCode)
	}
	// Malformed body.
	r, err := http.Post(ts.URL+"/encode", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", r.StatusCode)
	}
	// Wrong method.
	r, err = http.Get(ts.URL + "/encode")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", r.StatusCode)
	}
	// A body over the limit: whitespace the decoder must read past.
	big := append(bytes.Repeat([]byte(" "), maxBodyBytes+1), "{}"...)
	r, err = http.Post(ts.URL+"/encode", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", r.StatusCode)
	}
	// A finite input whose output is not: on a 1024→4 autoencoder at
	// Improved, ±MaxFloat64 entries signed like W1[:,0] in the first half
	// and against it in the second overflow the two k-block partial sums of
	// hidden unit 0 to +Inf and −Inf, which fold to NaN.
	cfg := phideep.AutoencoderConfig{Visible: 1024, Hidden: 4, Seed: 7}
	p := autoencoder.NewParams(cfg, cfg.Seed)
	_, nanTS := serveHTTP(t, phideep.ServeAutoencoder(cfg, p), phideep.ServeConfig{Level: phideep.Improved})
	x := make([]float64, cfg.Visible)
	for i := range x {
		x[i] = math.Copysign(math.MaxFloat64, p.W1.At(i, 0))
		if i >= cfg.Visible/2 {
			x[i] = -x[i]
		}
	}
	body, err := json.Marshal(inferRequest{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	r, err = http.Post(nanTS.URL+"/encode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
		t.Fatalf("non-finite output: status %d with unreadable body: %v", r.StatusCode, err)
	}
	if r.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("non-finite output: status %d error %q, want 422 naming NaN", r.StatusCode, e.Error)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newAEServer(t)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	var h struct {
		Status            string   `json:"status"`
		Model             string   `json:"model"`
		InputDim          int      `json:"input_dim"`
		Ops               []string `json:"ops"`
		WorkersLive       int      `json:"workers_live"`
		WorkersConfigured int      `json:"workers_configured"`
	}
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "healthy" || h.Model != "autoencoder" || h.InputDim != 12 {
		t.Fatalf("healthz = %+v", h)
	}
	if len(h.Ops) != 2 {
		t.Fatalf("ops = %v, want encode+reconstruct", h.Ops)
	}
	if h.WorkersLive != h.WorkersConfigured || h.WorkersLive < 1 {
		t.Fatalf("healthz workers = %d/%d, want all live", h.WorkersLive, h.WorkersConfigured)
	}
}

// TestHealthzDraining checks the readiness flip: a draining server must
// answer 503 so a load balancer pulls it from rotation before shutdown.
func TestHealthzDraining(t *testing.T) {
	cfg := phideep.AutoencoderConfig{Visible: 12, Hidden: 5, Seed: 7}
	srv, ts := serveHTTP(t, phideep.ServeAutoencoder(cfg, nil), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
	})

	if err := srv.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", r.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("status = %q, want draining", h.Status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newAEServer(t)
	// Generate one served request so the batcher counters are non-zero.
	resp, _ := postInfer(t, ts.URL+"/encode", make([]float64, 12))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode status %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	var m struct {
		Batcher phideep.BatcherStats `json:"batcher"`
	}
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Batcher.Requests < 1 || m.Batcher.Completed < 1 {
		t.Fatalf("batcher stats = %+v, want at least one completed request", m.Batcher)
	}
}

func TestStatusFor(t *testing.T) {
	if got := statusFor(phideep.ErrOverloaded); got != http.StatusTooManyRequests {
		t.Fatalf("overloaded -> %d, want 429", got)
	}
	if got := statusFor(phideep.ErrServerClosed); got != http.StatusServiceUnavailable {
		t.Fatalf("closed -> %d, want 503", got)
	}
	if got := statusFor(phideep.ErrServerDown); got != http.StatusServiceUnavailable {
		t.Fatalf("down -> %d, want 503", got)
	}
	if got := statusFor(phideep.ErrDeadline); got != http.StatusGatewayTimeout {
		t.Fatalf("deadline -> %d, want 504", got)
	}
	wf := &phideep.WorkerFaultError{Worker: 1, Restarts: 3, Cause: errors.New("boom")}
	if got := statusFor(fmt.Errorf("request: %w", wf)); got != http.StatusInternalServerError {
		t.Fatalf("worker fault -> %d, want 500", got)
	}
}

// TestDrainAndShutdown exercises the graceful exit end to end at the
// httptest level: admitted requests complete with correct answers, the
// batcher reports draining, and post-drain calls are refused.
func TestDrainAndShutdown(t *testing.T) {
	cfg := phideep.AutoencoderConfig{Visible: 12, Hidden: 5, Seed: 7}
	p := autoencoder.NewParams(cfg, cfg.Seed)
	srv, ts := serveHTTP(t, phideep.ServeAutoencoder(cfg, p), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
	})

	// Two requests are admitted. A free worker takes each at once, so a
	// request may be pending or already on a replica when the drain starts;
	// either way the drain must wait for its answer. (serve's
	// TestDrainGraceful holds the workers at a gate to drain pending
	// requests.)
	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.05 * float64(i)
	}
	type reply struct {
		status int
		out    []float64
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, got := postInfer(t, ts.URL+"/encode", x)
			replies <- reply{resp.StatusCode, got.Output}
		}()
	}
	waitFor(t, func() bool { return srv.Stats().Requests == 2 })

	var log bytes.Buffer
	if err := drainAndShutdown(&log, srv, ts.Config, 5*time.Second); err != nil {
		t.Fatalf("drainAndShutdown: %v", err)
	}

	want := make([]float64, 5)
	p.Encode(x, want)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("queued request: status %d after drain, want 200", r.status)
		}
		for j := range want {
			if r.out[j] != want[j] {
				t.Fatalf("drained output[%d] = %v, want %v", j, r.out[j], want[j])
			}
		}
	}
	st := srv.Stats()
	if st.Health != "draining" || st.Completed != 2 || st.QueueDepth != 0 {
		t.Fatalf("post-drain stats: health=%s completed=%d queued=%d", st.Health, st.Completed, st.QueueDepth)
	}
	if _, err := srv.Encode(x); err != phideep.ErrServerClosed {
		t.Fatalf("post-drain Encode: %v, want ErrServerClosed", err)
	}
	if !bytes.Contains(log.Bytes(), []byte("drained")) {
		t.Fatalf("drain log missing summary: %q", log.String())
	}
}

// waitFor polls cond at microsecond granularity with a 5s cap.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestLoadgenFaultReport runs the in-process load generator against a
// fault-injected server and checks the report carries the health line and
// no request falls outside the typed outcome classes.
func TestLoadgenFaultReport(t *testing.T) {
	cfg := phideep.AutoencoderConfig{Visible: 12, Hidden: 5, Seed: 7}
	srv, err := phideep.NewServer(phideep.ServeAutoencoder(cfg, nil), phideep.ServeConfig{
		Level: phideep.Baseline, MaxBatch: 4,
		Faults: phideep.FaultConfig{Rate: 0.05, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	if err := runLoadgen(&out, srv, "", 4, 300*time.Millisecond, "block", 1); err != nil {
		t.Fatalf("runLoadgen: %v", err)
	}
	report := out.String()
	for _, want := range []string{"health:", "fault batches", "0 failed"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("loadgen report missing %q:\n%s", want, report)
		}
	}
}

func TestHealthzAfterCheckpointExport(t *testing.T) {
	// Round-trip the phitrain -export container: write params through the
	// serve loader path and confirm the served model answers.
	cfg := phideep.AutoencoderConfig{Visible: 6, Hidden: 3, Seed: 11}
	p := autoencoder.NewParams(cfg, cfg.Seed)
	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.phck"
	if err := phideep.WriteCheckpoint(path, &phideep.Checkpoint{Step: 42, Model: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}
	m, err := phideep.ServeAutoencoderCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := serveHTTP(t, m, phideep.ServeConfig{Level: phideep.Baseline})

	x := []float64{0.2, 0.4, 0.6, 0.8, 1, 0}
	resp, got := postInfer(t, ts.URL+"/encode", x)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := make([]float64, 3)
	p.Encode(x, want)
	for i := range want {
		if got.Output[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v", i, got.Output[i], want[i])
		}
	}
}

// TestRunRejectsBadFaultConfig: an out-of-range -fault-rate or
// -fault-permanent stops run before it serves, whatever the rate, instead
// of starting a server with injection silently off.
func TestRunRejectsBadFaultConfig(t *testing.T) {
	base := serveOptions{
		modelKind: "ae", visible: 8, hidden: 4, seed: 1,
		levelName: "baseline", workers: 1, maxBatch: 4,
		policy: "block", precision: "f64",
		loadgen: true, clients: 1, duration: 10 * time.Millisecond,
	}
	for _, bad := range []func(*serveOptions){
		func(o *serveOptions) { o.faultRate = -0.5 },
		func(o *serveOptions) { o.faultPermanent = 3 },
	} {
		o := base
		bad(&o)
		var out bytes.Buffer
		err := run(&out, o)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("rate %g permanent %g: run error %v, want the fault range rejected\n%s", o.faultRate, o.faultPermanent, err, out.String())
		}
	}
}
