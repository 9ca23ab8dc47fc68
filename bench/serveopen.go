package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/serve"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

const spanRequest = "request"

// Open-loop serving geometry (the phiserve defaults over AE 1024->256).
const (
	openVisible   = 1024
	openHidden    = 256
	openMaxBatch  = 16
	openRate      = 4000.0 // requests per second: about 45 % of closed-loop capacity
	openHiRate    = 7000.0 // traced pass only: where latency starts to rise
	openWaiters   = 64     // parked goroutines that carry requests; bounds requests in flight
	openWarmup    = 200
	openRows      = 256 // distinct request rows, all checked against the reference
	openLimitMs   = 10.0
	closedClients = 8
)

func openAEConfig(seed uint64) autoencoder.Config {
	return autoencoder.Config{Visible: openVisible, Hidden: openHidden,
		Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Seed: seed}
}

func openServer(model *serve.Model, maxBatch int, seed uint64) (*serve.Server, error) {
	return serve.New(model, serve.Config{Level: core.Improved, Workers: 2, MaxBatch: maxBatch,
		MaxWait: time.Millisecond, Policy: serve.Block, Precision: serve.F64, Seed: seed})
}

// openResult is what one open-loop phase measured. Latency i is request
// i's reply time minus its due time, so a stall anywhere in the generator
// or the server lengthens the latencies of the requests it delayed.
type openResult struct {
	lat     []float64 // seconds, by request index
	failed  int
	lateMax float64 // seconds the generator issued a request after it was due, at worst
	elapsed float64
}

// openLoop issues n requests on a uniform schedule of rate per second,
// regardless of how the callee keeps up. One pacer hands request indices
// to at most waiters parked goroutines over an unbuffered channel: when
// every waiter is busy the pacer blocks, later requests go out late, and
// because each is timed from when it was due the backlog shows as latency
// rather than as reduced load. call returns an error for a failed request.
func openLoop(call func(i int) error, rate float64, n, waiters int, tr *tracer) openResult {
	res := openResult{lat: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				err := call(i)
				done := time.Now()
				due := start.Add(time.Duration(i) * interval)
				res.lat[i] = done.Sub(due).Seconds()
				tr.add(spanRequest, 1+w, due, done)
				if err != nil {
					mu.Lock()
					res.failed++
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
		if late := time.Since(due).Seconds(); late > res.lateMax {
			res.lateMax = late
		}
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	return res
}

// closedLoop runs clients callers that each issue their next request when
// the previous one returns, while more(i, elapsed) holds for the next
// request index. It returns completions per second and the failure count.
func closedLoop(call func(i int) error, clients int, more func(i int, elapsed time.Duration) bool) (rps float64, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n, bad := 0, 0
			for i := c; more(i, time.Since(start)); i += clients {
				if call(i) != nil {
					bad++
				}
				n++
			}
			mu.Lock()
			done += n
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), failed
}

// serveOpenInstance is the set-up open-loop workload.
type serveOpenInstance struct {
	cfg    runCfg
	tr     *tracer
	params *autoencoder.Params
	model  *serve.Model
	srv    *serve.Server
	rows   *tensor.Matrix // openRows x openVisible request inputs
	ref    *tensor.Matrix // openRows x openHidden replies a device replica gives
	n      int
}

func setupServeOpen(cfg runCfg, tr *tracer) (instance, error) {
	acfg := openAEConfig(cfg.seed)
	params := autoencoder.NewParams(acfg, cfg.seed)
	si := &serveOpenInstance{cfg: cfg, tr: tr, params: params, model: serve.Autoencoder(acfg, params),
		rows: tensor.NewMatrix(openRows, openVisible),
		n:    cfg.count(int(openRate*nominalSeconds), 20000)}
	data.NewDigits(32, openRows, cfg.seed, 0.05).Chunk(0, openRows, si.rows)

	// Reference replies: the same forward path on a replica of our own.
	// The server's answers do not depend on how requests were batched, so
	// every reply must equal its reference row bitwise.
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	replica, err := autoencoder.NewInference(core.NewContext(dev, core.Improved, 0, cfg.seed), acfg, openMaxBatch, params)
	if err != nil {
		return nil, err
	}
	defer replica.Free()
	x := dev.MustAlloc(openMaxBatch, openVisible)
	si.ref = tensor.NewMatrix(openRows, openHidden)
	for lo := 0; lo < openRows; lo += openMaxBatch {
		dev.CopyIn(x, si.rows.RowsView(lo, lo+openMaxBatch), 0)
		dev.CopyOut(replica.Encode(x), si.ref.RowsView(lo, lo+openMaxBatch))
	}
	if si.srv, err = openServer(si.model, openMaxBatch, cfg.seed); err != nil {
		return nil, err
	}
	warm := func(i int, _ time.Duration) bool { return i < openWarmup }
	if rps, failed := closedLoop(si.call(si.srv), closedClients, warm); failed > 0 {
		si.srv.Close()
		return nil, fmt.Errorf("warm-up: %d requests failed or answered wrongly (%.0f req/s)", failed, rps)
	}
	return si, nil
}

// call returns the request function: encode row i mod openRows on srv and
// compare the reply with the reference bitwise. A typed error, a shed, a
// deadline or a wrong answer is a failed request.
func (si *serveOpenInstance) call(srv *serve.Server) func(i int) error {
	return func(i int) error {
		r := i % openRows
		out, err := srv.Encode(si.rows.RowView(r))
		if err != nil {
			return err
		}
		want := si.ref.RowView(r)
		if len(out) != len(want) {
			return fmt.Errorf("reply has %d values, want %d", len(out), len(want))
		}
		for j := range want {
			if out[j] != want[j] {
				return fmt.Errorf("row %d col %d: got %v, want %v", r, j, out[j], want[j])
			}
		}
		return nil
	}
}

// checkReplica verifies that the replica the replies were compared with
// itself agrees with the scalar host forward pass.
func (si *serveOpenInstance) checkReplica(o *outcome) {
	worst, host := 0.0, make([]float64, openHidden)
	for r := 0; r < openRows; r++ {
		si.params.Encode(si.rows.RowView(r), host)
		for j, v := range host {
			worst = math.Max(worst, math.Abs(v-si.ref.RowView(r)[j]))
		}
	}
	o.check("device-replica forward within 1e-12 of the host reference", worst <= 1e-12, "worst difference %g", worst)
}

func (si *serveOpenInstance) close() { si.srv.Close() }

func (si *serveOpenInstance) run() (*outcome, error) {
	before := si.srv.Stats()
	res := openLoop(si.call(si.srv), openRate, si.n, openWaiters, si.tr)
	after := si.srv.Stats()

	perWindow := int(openRate) // one-second windows
	o := &outcome{attempted: si.n, failed: res.failed, wall: res.elapsed, spans: si.tr.snapshot()}
	o.unitN = si.n
	o.unitP50 = 1e3 * windowed(res.lat, perWindow, 50)
	o.unitTail = 1e3 * windowed(res.lat, perWindow, 99)
	// Goodput: requests answered correctly within the latency limit, per
	// second of the timed phase. A failed request misses the limit (there
	// are none on this workload, and any would fail the run).
	misses := res.failed
	for _, l := range res.lat {
		if 1e3*l > openLimitMs {
			misses++
		}
	}
	o.rowsPerS = float64(si.n-misses) / res.elapsed

	o.check("every reply equals the device-replica forward bitwise", res.failed == 0, "%d of %d requests failed", res.failed, si.n)
	o.slow = append(o.slow, func() { si.checkReplica(o) })
	o.check("server healthy", after.Health == "healthy" && after.Sheds == 0 && after.Degrades == 0,
		"health %s, %d sheds, %d degrades", after.Health, after.Sheds, after.Degrades)

	setBatcherStats(o, before, after)
	o.set("serve.open.gen_late_ms.max", 1e3*res.lateMax, si.n)
	o.set("serve.open.slo_miss_share", float64(misses)/float64(si.n), si.n)
	return o, nil
}

// extras runs the traced pass's two extra phases: the open loop again at
// openHiRate, where the backlog starts to grow, and a closed loop that
// gives the capacity the open-loop rates are a share of.
func (si *serveOpenInstance) extras(o *outcome) error {
	n := si.cfg.count(int(openHiRate*3), 7000)
	hi := openLoop(si.call(si.srv), openHiRate, n, openWaiters, nil)
	per := int(openHiRate)
	o.set("serve.open.hi.p50_ms", 1e3*windowed(hi.lat, per, 50), n)
	o.set("serve.open.hi.p99_ms", 1e3*windowed(hi.lat, per, 99), n)
	// Backlog growth: how much later the last tenth of the requests were
	// answered than the first tenth, per second of schedule between them.
	tenth := n / 10
	first, last := median(hi.lat[:tenth]), median(hi.lat[n-tenth:])
	o.set("serve.open.hi.backlog_growth", 1e3*(last-first)/(0.9*float64(n)/openHiRate), 2*tenth)
	o.failed += hi.failed
	o.check("high-rate phase answered every request", hi.failed == 0, "%d of %d failed", hi.failed, n)

	srv, err := openServer(si.model, 8, si.cfg.seed)
	if err != nil {
		return err
	}
	defer srv.Close()
	d := time.Duration(si.cfg.scale * 3 * float64(time.Second))
	rps, failed := closedLoop(si.call(srv), closedClients, func(_ int, el time.Duration) bool { return el < d })
	o.set("serve.closed.capacity_rps", rps, int(rps*d.Seconds()))
	o.failed += failed
	o.check("closed-loop phase answered every request", failed == 0, "%d failed", failed)
	return nil
}

// setBatcherStats records how the batcher coalesced the timed phase's
// requests: full flushes amortise the forward pass, deadline flushes cost
// MaxWait.
func setBatcherStats(o *outcome, before, after serve.BatcherStats) {
	batches := after.Batches - before.Batches
	o.set("serve.batches", float64(batches), 1)
	if batches > 0 {
		o.set("serve.batch.mean_size", float64(after.Completed-before.Completed)/float64(batches), int(batches))
		o.set("serve.flush.full_share", float64(after.FlushFull-before.FlushFull)/float64(batches), int(batches))
	}
}
