// Command phiserve serves a trained phideep model over HTTP, coalescing
// concurrent single-example requests into micro-batches on a pool of
// workers, each running a host replica of the model on the packed kernels
// (see internal/serve and DESIGN.md §10, §14).
//
// Serve a checkpoint written by phitrain -export:
//
//	phitrain -model ae -side 16 -hidden 64 -epochs 3 -export model.phck
//	phiserve -model ae -visible 256 -hidden 64 -checkpoint model.phck -addr localhost:8080
//
//	curl -s localhost:8080/encode -d '{"input":[0.1, ...]}'   # 256 values
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /encode, /reconstruct (autoencoder, RBM) and /predict
// (MLP, convnet) take {"input":[...]} and answer {"output":[...]}; GET
// /metrics returns the batcher stats plus the metrics registry snapshot;
// GET /healthz is the readiness probe — it reports the availability state
// machine ("healthy", "degraded", "draining", "down") with worker and
// restart counts, answering 200 while the server can take traffic (healthy
// or degraded) and 503 once it cannot (draining or down).
//
// Convnet checkpoints carry no geometry, so the -side/-filters*/-kernel*/
// -pool/-classes flags must repeat the training geometry:
//
//	phitrain -model convnet -side 16 -epochs 5 -export cnn.phck
//	phiserve -model convnet -side 16 -checkpoint cnn.phck
//
// Overload responses follow the admission policy (-policy): block applies
// backpressure, shed answers 429, degrade falls back to the scalar host
// path inline. -request-timeout bounds every request's queue+service time;
// expired requests answer 504.
//
// -precision f64 (the default) answers with the bits of the model's
// device forward, the path training runs; -precision f32 serves from
// float32 weight snapshots on the packed SIMD kernels — lower latency,
// answers within float32 rounding of the f64 path (training always stays
// f64).
//
// Robustness knobs (DESIGN.md §14): -fault-rate arms the deterministic
// PCIe fault injector on every worker at either precision, drawn once per
// batch (with -fault-permanent and -fault-seed shaping the streams),
// -max-restarts is the restart intensity — the rebuilds a worker slot may
// take within its last 1000 batches before it retires — and
// SIGINT/SIGTERM triggers a graceful drain bounded by -drain-timeout
// instead of killing in-flight requests.
//
// The built-in closed-loop load generator drives the same Server in
// process and prints a throughput/latency report instead of listening:
//
//	phiserve -model ae -visible 256 -hidden 64 -loadgen -clients 16 -duration 5s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phideep"
	"phideep/internal/metrics"
)

// serveOptions carries every CLI knob through run and its helpers; one
// field per flag, in flag-declaration order.
type serveOptions struct {
	modelKind string
	ckpt      string
	visible   int
	hidden    int
	sizes     string
	tied      bool
	gaussian  bool
	conv      phideep.ConvnetConfig

	levelName string
	workers   int
	pool      int
	maxBatch  int
	queue     int
	policy    string
	precision string
	seed      uint64

	faultRate      float64
	faultPermanent float64
	faultSeed      uint64
	maxRestarts    int
	requestTimeout time.Duration
	drainTimeout   time.Duration

	addr     string
	loadgen  bool
	clients  int
	duration time.Duration
	op       string
}

func main() {
	var o serveOptions
	flag.StringVar(&o.modelKind, "model", "ae", "ae | rbm | mlp | convnet")
	flag.StringVar(&o.ckpt, "checkpoint", "", "PHCK checkpoint to serve (phitrain -export / -checkpoint); fresh seeded weights if empty")
	flag.IntVar(&o.visible, "visible", 256, "input units (ae/rbm)")
	flag.IntVar(&o.hidden, "hidden", 64, "hidden units (ae/rbm)")
	flag.StringVar(&o.sizes, "sizes", "", "comma-separated MLP layer sizes, input first (e.g. 256,64,10)")
	flag.BoolVar(&o.tied, "tied", false, "decoder weights tied to the encoder (ae; must match training)")
	flag.BoolVar(&o.gaussian, "gaussian", false, "Gaussian visible units (rbm; must match training)")

	flag.IntVar(&o.conv.Side, "side", 16, "convnet: input image side (must match training)")
	flag.IntVar(&o.conv.Filters1, "filters1", 6, "convnet: first conv layer filter count (must match training)")
	flag.IntVar(&o.conv.Kernel1, "kernel1", 5, "convnet: first conv kernel side (must match training)")
	flag.IntVar(&o.conv.Filters2, "filters2", 12, "convnet: second conv layer filter count (must match training)")
	flag.IntVar(&o.conv.Kernel2, "kernel2", 3, "convnet: second conv kernel side (must match training)")
	flag.IntVar(&o.conv.Pool, "pool", 2, "convnet: max-pooling window/stride (must match training)")
	flag.IntVar(&o.conv.Classes, "classes", 10, "convnet: output classes (must match training)")

	flag.StringVar(&o.levelName, "level", "improved", "baseline | openmp | mkl | improved")
	flag.IntVar(&o.workers, "workers", 2, "serving workers, one model replica each")
	flag.IntVar(&o.pool, "pool-workers", 0, "Go pool size behind each replica's parallel kernels (0 = run inline)")
	flag.IntVar(&o.maxBatch, "max-batch", 16, "micro-batch coalescing limit: a free worker takes at most this many pending requests")
	flag.IntVar(&o.queue, "queue-depth", 0, "admission bound on queued requests (0 = 4x max-batch)")
	flag.StringVar(&o.policy, "policy", "block", "full-queue policy: block | shed | degrade")
	flag.StringVar(&o.precision, "precision", "f64", "replica numeric width: f64 (the device forward's bits) | f32 (float32 weights)")
	flag.Uint64Var(&o.seed, "seed", 1, "fresh-weights seed without -checkpoint")
	collect := flag.Bool("collect", true, "enable the internal metrics registry (feeds /metrics)")

	flag.Float64Var(&o.faultRate, "fault-rate", 0, "per-attempt fault probability of a batch's staging (0 = injector off)")
	flag.Float64Var(&o.faultPermanent, "fault-permanent", 0, "fraction of injected faults that are permanent (replica loss)")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault injector base seed (per-worker streams derive from it)")
	flag.IntVar(&o.maxRestarts, "max-restarts", 0, "restart intensity: worker rebuilds allowed per slot within its last 1000 batches before it retires (0 = default 3, -1 = retire on first fault)")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 0, "per-request deadline across queueing and service (0 = none)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "graceful drain bound on SIGINT/SIGTERM (0 = wait forever)")

	flag.StringVar(&o.addr, "addr", "localhost:8080", "HTTP listen address")
	flag.BoolVar(&o.loadgen, "loadgen", false, "run the built-in closed-loop load generator and exit (no HTTP)")
	flag.IntVar(&o.clients, "clients", 8, "loadgen: concurrent closed-loop clients")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "loadgen: run length")
	flag.StringVar(&o.op, "op", "", "loadgen: operation (encode | reconstruct | predict; default: first the model supports)")
	flag.Parse()

	metrics.SetEnabled(*collect)
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "phiserve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o serveOptions) error {
	m, err := buildModel(o)
	if err != nil {
		return err
	}
	lvl, err := pickLevel(o.levelName)
	if err != nil {
		return err
	}
	pol, err := pickPolicy(o.policy)
	if err != nil {
		return err
	}
	prec, err := pickPrecision(o.precision)
	if err != nil {
		return err
	}
	fc := phideep.FaultConfig{Rate: o.faultRate, PermanentFrac: o.faultPermanent, Seed: o.faultSeed}
	if err := fc.Validate(); err != nil {
		return err
	}
	srv, err := phideep.NewServer(m, phideep.ServeConfig{
		Level: lvl, Workers: o.workers, PoolWorkers: o.pool,
		MaxBatch: o.maxBatch, QueueDepth: o.queue, Policy: pol, Precision: prec, Seed: o.seed,
		Faults: fc, MaxRestarts: o.maxRestarts, RequestTimeout: o.requestTimeout,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if o.loadgen {
		return runLoadgen(w, srv, o.op, o.clients, o.duration, o.policy, o.seed)
	}

	fmt.Fprintf(w, "phiserve: %s model (%d inputs) [%s], %d workers, batch<=%d policy=%s precision=%s\n",
		m.Kind(), m.InputDim(), lvl, o.workers, o.maxBatch, pol, prec)
	if o.faultRate > 0 {
		fmt.Fprintf(w, "phiserve: fault injection armed: rate=%g permanent=%g seed=%d max-restarts=%d\n",
			o.faultRate, o.faultPermanent, o.faultSeed, o.maxRestarts)
	}
	fmt.Fprintf(w, "phiserve: listening on http://%s\n", o.addr)

	hs := &http.Server{Addr: o.addr, Handler: newMux(srv, time.Now())}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(w, "phiserve: caught %v, draining (timeout %v)\n", sig, o.drainTimeout)
		return drainAndShutdown(w, srv, hs, o.drainTimeout)
	}
}

// drainAndShutdown is the graceful exit path: the batcher drains first
// (admission flips to draining — /healthz answers 503 — and the workers
// finish every admitted request inside the timeout), then the HTTP
// listener shuts down. Split from run's signal plumbing so the httptest
// suite can drive it directly.
func drainAndShutdown(w io.Writer, srv *phideep.Server, hs *http.Server, timeout time.Duration) error {
	derr := srv.Drain(timeout)
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	serr := hs.Shutdown(ctx)
	st := srv.Stats()
	fmt.Fprintf(w, "phiserve: drained: %d of %d requests completed, health=%s\n",
		st.Completed, st.Requests, st.Health)
	if derr != nil {
		return derr
	}
	return serr
}

// buildModel snapshots the parameters to serve: loaded from a PHCK
// checkpoint when -checkpoint is set, else freshly seeded (useful for
// latency experiments, where the weights' values are irrelevant).
func buildModel(o serveOptions) (*phideep.ServeModel, error) {
	switch o.modelKind {
	case "ae":
		cfg := phideep.AutoencoderConfig{Visible: o.visible, Hidden: o.hidden, Tied: o.tied, Seed: o.seed}
		if o.ckpt != "" {
			return phideep.ServeAutoencoderCheckpoint(cfg, o.ckpt)
		}
		return phideep.ServeAutoencoder(cfg, nil), nil
	case "rbm":
		cfg := phideep.RBMConfig{Visible: o.visible, Hidden: o.hidden, GaussianVisible: o.gaussian, Seed: o.seed}
		if o.ckpt != "" {
			return phideep.ServeRBMCheckpoint(cfg, o.ckpt)
		}
		return phideep.ServeRBM(cfg, nil), nil
	case "mlp":
		layers, err := parseSizes(o.sizes)
		if err != nil {
			return nil, err
		}
		cfg := phideep.MLPConfig{Sizes: layers, Seed: o.seed}
		if o.ckpt != "" {
			return phideep.ServeMLPCheckpoint(cfg, o.ckpt)
		}
		return phideep.ServeMLP(cfg, nil), nil
	case "convnet":
		conv := o.conv
		conv.Seed = o.seed
		if err := conv.Validate(); err != nil {
			return nil, err
		}
		if o.ckpt != "" {
			return phideep.ServeConvnetCheckpoint(conv, o.ckpt)
		}
		return phideep.ServeConvnet(conv, nil), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want ae, rbm, mlp or convnet)", o.modelKind)
	}
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("mlp requires -sizes (e.g. -sizes 256,64,10)")
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q: %w", p, err)
		}
		sizes[i] = n
	}
	return sizes, nil
}

func pickLevel(name string) (phideep.OptLevel, error) {
	switch name {
	case "baseline":
		return phideep.Baseline, nil
	case "openmp":
		return phideep.OpenMP, nil
	case "mkl":
		return phideep.OpenMPMKL, nil
	case "improved":
		return phideep.Improved, nil
	default:
		return 0, fmt.Errorf("unknown level %q", name)
	}
}

func pickPolicy(name string) (phideep.ServePolicy, error) {
	switch name {
	case "block":
		return phideep.ServeBlock, nil
	case "shed":
		return phideep.ServeShed, nil
	case "degrade":
		return phideep.ServeDegrade, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want block, shed or degrade)", name)
	}
}

func pickPrecision(name string) (phideep.Precision, error) {
	switch name {
	case "f64":
		return phideep.PrecisionF64, nil
	case "f32":
		return phideep.PrecisionF32, nil
	default:
		return 0, fmt.Errorf("unknown precision %q (want f64 or f32)", name)
	}
}

// newMux wires the serving endpoints. Split from run so the httptest suite
// can drive the exact production handler chain.
func newMux(srv *phideep.Server, start time.Time) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/encode", inferHandler(srv.Encode, false))
	mux.HandleFunc("/reconstruct", inferHandler(srv.Reconstruct, false))
	mux.HandleFunc("/predict", inferHandler(srv.Predict, true))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"batcher":  srv.Stats(),
			"registry": metrics.Default().Snapshot(),
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		m := srv.Model()
		st := srv.Stats()
		ops := make([]string, 0, 2)
		for _, op := range m.Ops() {
			ops = append(ops, op.String())
		}
		// Readiness: healthy and degraded still take traffic; draining and
		// down must be pulled from rotation.
		code := http.StatusOK
		if st.Health == phideep.ServeDraining.String() || st.Health == phideep.ServeDown.String() {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{
			"status":             st.Health,
			"model":              m.Kind(),
			"input_dim":          m.InputDim(),
			"ops":                ops,
			"workers_live":       st.WorkersLive,
			"workers_configured": st.WorkersConfigured,
			"restarts":           st.Restarts,
			"retired":            st.Retired,
			"uptime_seconds":     time.Since(start).Seconds(),
		})
	})
	return mux
}

type inferRequest struct {
	Input []float64 `json:"input"`
}

type inferResponse struct {
	Output []float64 `json:"output"`
	// Class is the argmax of Output, reported by /predict only.
	Class *int `json:"class,omitempty"`
}

// maxBodyBytes bounds an inference request body.
const maxBodyBytes = 8 << 20

// inferHandler adapts one Server method to the POST {"input":[...]} →
// {"output":[...]} JSON protocol. Admission failures map to HTTP status:
// shed → 429 Too Many Requests, closed/down → 503 Service Unavailable,
// deadline → 504 Gateway Timeout, worker fault → 500, bad input → 400, a
// body over maxBodyBytes → 413, and an input that drives an output to NaN
// or ±Inf (which JSON cannot carry) → 422.
func inferHandler(call func([]float64) ([]float64, error), classify bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
			return
		}
		var req inferRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err := dec.Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		out, err := call(req.Input)
		if err != nil {
			writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
			return
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				writeJSON(w, http.StatusUnprocessableEntity, map[string]string{
					"error": fmt.Sprintf("output[%d] is %v: the input overflows the model", i, v),
				})
				return
			}
		}
		resp := inferResponse{Output: out}
		if classify {
			c := argmax(out)
			resp.Class = &c
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func statusFor(err error) int {
	var wf *phideep.WorkerFaultError
	switch {
	case errors.Is(err, phideep.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, phideep.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, phideep.ErrServerDown), errors.Is(err, phideep.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &wf):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// writeJSON answers status with v as indented JSON. v is marshalled before
// the header goes out, so a value JSON cannot carry answers 500 with the
// reason instead of a status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		// A map of strings always marshals.
		body, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(append(body, '\n'))
}
