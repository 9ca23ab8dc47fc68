package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"phideep"
)

// runLoadgen drives the in-process Server with `clients` closed-loop
// clients (each issues its next request the moment the previous one is
// answered) for `duration`, then prints a throughput and latency report.
// Closed-loop load is the natural probe for a micro-batcher: concurrency
// directly bounds the coalescing the batcher can achieve, so sweeping
// -clients maps the latency/throughput trade-off (see EXPERIMENTS.md). Under -fault-rate the report also separates the typed
// failure classes (deadline, worker fault, server down) and prints the
// health line, so a chaos run's degradation is visible at a glance.
func runLoadgen(w io.Writer, srv *phideep.Server, opName string, clients int, duration time.Duration, policyName string, seed uint64) error {
	if clients <= 0 {
		return fmt.Errorf("loadgen: need at least one client, got %d", clients)
	}
	call, opName, err := pickOp(srv, opName)
	if err != nil {
		return err
	}
	dim := srv.Model().InputDim()

	type clientResult struct {
		lats      []time.Duration
		sheds     int
		deadlines int
		faults    int
		down      int
		errs      int
	}
	results := make([]clientResult, clients)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(i)))
			x := make([]float64, dim)
			res := &results[i]
			for time.Now().Before(deadline) {
				// Perturb one coordinate per request: distinct inputs
				// without paying dim work per iteration.
				x[rng.Intn(dim)] = rng.Float64()
				t0 := time.Now()
				_, err := call(x)
				var wf *phideep.WorkerFaultError
				switch {
				case err == nil:
					res.lats = append(res.lats, time.Since(t0))
				case errors.Is(err, phideep.ErrOverloaded):
					res.sheds++
				case errors.Is(err, phideep.ErrDeadline):
					res.deadlines++
				case errors.Is(err, phideep.ErrServerDown):
					// Down is terminal (every replica retired): keep the
					// observation and stop instead of spinning on it.
					res.down++
					return
				case errors.As(err, &wf):
					res.faults++
				default:
					res.errs++
				}
			}
		}(i)
	}
	wg.Wait()

	var all []time.Duration
	sheds, deadlines, faults, down, errs := 0, 0, 0, 0, 0
	for _, r := range results {
		all = append(all, r.lats...)
		sheds += r.sheds
		deadlines += r.deadlines
		faults += r.faults
		down += r.down
		errs += r.errs
	}
	st := srv.Stats()
	if len(all) == 0 {
		return fmt.Errorf("loadgen: no request completed (%d shed, %d deadline, %d faulted, %d down, %d failed; health=%s)",
			sheds, deadlines, faults, down, errs, st.Health)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	var sum time.Duration
	for _, d := range all {
		sum += d
	}

	fmt.Fprintf(w, "phiserve loadgen: op=%s clients=%d duration=%v policy=%s precision=%s\n",
		opName, clients, duration, policyName, st.Precision)
	fmt.Fprintf(w, "  requests: %d ok, %d shed, %d deadline, %d faulted, %d down, %d failed (%.1f req/s)\n",
		len(all), sheds, deadlines, faults, down, errs, float64(len(all))/duration.Seconds())
	fmt.Fprintf(w, "  latency:  mean=%v p50=%v p90=%v p99=%v max=%v\n",
		(sum / time.Duration(len(all))).Round(time.Microsecond),
		pct(all, 50).Round(time.Microsecond), pct(all, 90).Round(time.Microsecond),
		pct(all, 99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	fmt.Fprintf(w, "  overload: %d sheds, %d degrades (server-side admission counters)\n",
		st.Sheds, st.Degrades)
	fmt.Fprintf(w, "  batcher:  %d batches, avg size %.2f, %d full\n",
		st.Batches, st.AvgBatchSize, st.FlushFull)
	fmt.Fprintf(w, "  health:   %s (%d/%d workers live), %d fault batches, %d retries, %d redispatches, %d restarts, %d retired\n",
		st.Health, st.WorkersLive, st.WorkersConfigured,
		st.FaultBatches, st.FaultRetries, st.Redispatches, st.Restarts, st.Retired)
	return nil
}

// pickOp resolves the loadgen operation: the named one, or the model's
// first supported operation when -op is empty.
func pickOp(srv *phideep.Server, name string) (func([]float64) ([]float64, error), string, error) {
	if name == "" {
		ops := srv.Model().Ops()
		if len(ops) == 0 {
			return nil, "", fmt.Errorf("loadgen: model supports no operations")
		}
		name = ops[0].String()
	}
	switch name {
	case "encode":
		return srv.Encode, name, nil
	case "reconstruct":
		return srv.Reconstruct, name, nil
	case "predict":
		return srv.Predict, name, nil
	default:
		return nil, "", fmt.Errorf("loadgen: unknown op %q (want encode, reconstruct or predict)", name)
	}
}

// pct returns the p-th percentile of sorted latencies (nearest-rank).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}
