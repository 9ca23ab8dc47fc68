package main

import (
	"fmt"
	"math"
	"time"

	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/feed"
	"phideep/internal/mlp"
	"phideep/internal/serve"
	"phideep/internal/tensor"
)

const spanPass = "bulk.pass"

// Bulk-scoring geometry: MLP 784->512->10 at f32 over labeled digits.
const (
	bulkSide     = 28
	bulkChunk    = 512
	bulkMaxBatch = 32
	bulkWarmup   = 3
	bulkPasses   = 20
	bulkSample   = 128  // rows compared with the host f64 reference
	bulkTol      = 1e-4 // f32 forward vs f64 host reference, per probability
)

var bulkSizes = []int{bulkSide * bulkSide, 512, 10}

// bulkExamples is the dataset one sweep scores; a variable so the smoke
// test can shrink it.
var bulkExamples = 8192

// serveBulkInstance is the set-up bulk-scoring workload.
type serveBulkInstance struct {
	tr       *tracer
	srv      *serve.Server
	fd       *feed.Feed
	consumer *feed.Consumer
	mcfg     mlp.Config
	params   *mlp.Params
	digits   data.Labeled
	sample   [][]float64 // the first warm-up sweep's replies to rows 0..bulkSample-1
	examples int
	passes   int
	correct  int // BulkResult.Correct of the warm-up passes; every pass must repeat it
}

func setupServeBulk(cfg runCfg, tr *tracer) (instance, error) {
	mcfg := mlp.Config{Sizes: bulkSizes, Lambda: 1e-4, Seed: cfg.seed}
	params := mlp.NewParams(mcfg, cfg.seed)
	srv, err := serve.New(serve.MLP(mcfg, params), serve.Config{Level: core.Improved, Workers: 2,
		MaxBatch: bulkMaxBatch, MaxWait: time.Millisecond, Policy: serve.Block,
		Precision: serve.F32, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	digits := data.NewDigits(bulkSide, bulkExamples, cfg.seed, 0.05)
	bi := &serveBulkInstance{tr: tr, srv: srv, mcfg: mcfg, params: params, digits: digits,
		sample: make([][]float64, min(bulkSample, bulkExamples)), examples: bulkExamples,
		passes: cfg.count(bulkPasses, 12), correct: -1}
	var src data.Labeled = digits
	if tr != nil {
		src = tracedSource{src, tr}
	}
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: bulkExamples, Batch: bulkMaxBatch, ChunkExamples: bulkChunk})
	if err == nil {
		bi.fd, err = feed.NewLabeled(src, feed.Config{Plan: plan, Window: 2})
	}
	if err == nil {
		bi.consumer, err = bi.fd.Subscribe("bulk")
	}
	if err != nil {
		srv.Close()
		return nil, err
	}

	// Warm-up sweeps; the first keeps a sample of the replies, which run
	// checks against the host reference once the clock has stopped.
	keep := func(example int, scores []float64) {
		if example < len(bi.sample) {
			bi.sample[example] = scores
		}
	}
	for p := 0; p < bulkWarmup; p++ {
		res, err := srv.ScoreFeed(serve.OpPredict, bi.consumer, keep)
		keep = nil
		if err == nil {
			err = bi.passOK(res)
		}
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up pass %d: %w", p, err)
		}
	}
	return bi, nil
}

// checkSample compares the kept replies with the host f64 forward pass:
// every probability within bulkTol, and the argmax mismatches reported.
func (bi *serveBulkInstance) checkSample(o *outcome) {
	x := tensor.NewMatrix(1, bulkSizes[0])
	worst, mismatches, missing := 0.0, 0, 0
	for example, scores := range bi.sample {
		if scores == nil {
			missing++
			continue
		}
		bi.digits.Chunk(example, 1, x)
		want := bi.params.PredictProbs(bi.mcfg, x.RowView(0))
		for j, w := range want {
			worst = math.Max(worst, math.Abs(scores[j]-w))
		}
		if argmax(scores) != argmax(want) {
			mismatches++
		}
	}
	o.check("f32 replies within tolerance of the host f64 reference", missing == 0 && worst <= bulkTol,
		"worst difference %g (tolerance %g), %d argmax mismatches, %d unanswered of %d rows",
		worst, bulkTol, mismatches, missing, len(bi.sample))
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

// passOK checks one sweep: every row answered, none failed, and the same
// number of correct predictions as every other sweep of the same data.
func (bi *serveBulkInstance) passOK(res *serve.BulkResult) error {
	if res.Rows != bi.examples || res.Failed != 0 || res.Chunks != bi.examples/bulkChunk || !res.Labeled {
		return fmt.Errorf("sweep answered %d rows in %d chunks with %d failed, want %d rows", res.Rows, res.Chunks, res.Failed, bi.examples)
	}
	if bi.correct < 0 {
		bi.correct = res.Correct
	}
	if res.Correct != bi.correct {
		return fmt.Errorf("sweep got %d predictions right, earlier sweeps %d", res.Correct, bi.correct)
	}
	return nil
}

func (bi *serveBulkInstance) close() {
	bi.consumer.Close()
	bi.srv.Close()
}

func (bi *serveBulkInstance) extras(*outcome) error { return nil }

func (bi *serveBulkInstance) run() (*outcome, error) {
	o := &outcome{}
	bi.tr.reset()
	before := bi.srv.Stats()
	start := time.Now()
	var bad error
	for p := 0; p < bi.passes; p++ {
		id := bi.tr.begin(spanPass)
		res, err := bi.srv.ScoreFeed(serve.OpPredict, bi.consumer, nil)
		bi.tr.end(id)
		if err != nil {
			return nil, err
		}
		o.unit = append(o.unit, res.Seconds)
		o.attempted += bi.examples
		o.failed += bi.examples - res.Rows
		if err := bi.passOK(res); err != nil && bad == nil {
			bad = fmt.Errorf("pass %d: %w", p, err)
		}
	}
	o.wall = time.Since(start).Seconds()
	o.spans = bi.tr.snapshot()
	after := bi.srv.Stats()
	o.rowsPerS = float64(bi.examples) / median(o.unit)

	o.check("every sweep answers every row, none failed, same accuracy", bad == nil, "%v", bad)
	o.slow = append(o.slow, func() { bi.checkSample(o) })
	fs := bi.fd.Stats()
	wantLeases := (bulkWarmup + bi.passes) * bi.examples / bulkChunk
	o.check("feed leases = commits, no stalls", fs.Leases == wantLeases && fs.Commits == wantLeases && fs.Stalls == 0,
		"%+v, want %d leases", fs, wantLeases)
	setFeedStats(o, fs)

	setBatcherStats(o, before, after)
	o.set("serve.bulk.failed", float64(o.failed), o.attempted)
	if bi.tr != nil {
		chunks := durations(o.spans, spanChunk)
		o.set("data.chunk.us_per_example", 1e6*sum(chunks)/float64(o.attempted), len(chunks))
		o.set("data.chunk.share", sum(chunks)/o.wall, len(chunks))
	}
	return o, nil
}
