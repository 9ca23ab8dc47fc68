package phideep_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/cluster"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/serve"
	"phideep/internal/sim"
	"phideep/internal/stack"
)

// updateGolden rewrites the digest file of the running kernel path.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/{asm,noasm}.json from this build")

// Geometry of every golden job: 130 digits in 40-example chunks of
// 10-example batches, for 3 epochs. Chunks straddle both the end of the
// source (wraparound) and epoch boundaries, and the last chunk is cut
// short by the step count.
const (
	goldenSide     = 8
	goldenExamples = 130
	goldenBatch    = 10
	goldenChunk    = 40
	goldenEpochs   = 3
	goldenSeed     = 7
)

// goldenDigest is what one job leaves behind, bit for bit.
type goldenDigest struct {
	// PHCK is the SHA-256 of the final model as a PHCK checkpoint.
	PHCK string `json:"phck_sha256,omitempty"`
	// EpochLoss holds the IEEE-754 bits of each epoch's mean loss (for a
	// stack, every layer's in layer order).
	EpochLoss []string `json:"epoch_loss_bits,omitempty"`
	// SimSeconds is the simulated makespan, formatted to round-trip.
	SimSeconds string `json:"sim_seconds,omitempty"`
	// Out is the SHA-256 of a served sweep's output bits; served entries
	// carry only this field.
	Out string `json:"out_sha256,omitempty"`
	// Cluster entries carry SimSeconds and these instead of PHCK and
	// EpochLoss: the SHA-256 of the final parameters' bits, every step's
	// loss bits, the SHA-256 of the run report's JSON, and the SHA-256 of
	// each feed consumer's projection of the ledger, in shard order.
	Params   string   `json:"params_sha256,omitempty"`
	StepLoss []string `json:"step_loss_bits,omitempty"`
	Report   string   `json:"report_sha256,omitempty"`
	Ledger   []string `json:"ledger_sha256,omitempty"`
}

// goldenJob is one model family: train it on src (a fresh one per job)
// with cfg and return the model state blob, the epoch losses and the
// result carrying the cursor and simulated time.
type goldenJob struct {
	name string
	// depth is the ring depth and the explicit feed's window; the models
	// cover 1–3 between them.
	depth int
	train func(ctx *blas.Context, cfg core.TrainConfig, fed bool) (blob []byte, losses []float64, res *core.Result, err error)
}

// goldenFeed subscribes one trainer to a fresh feed over src with the
// golden chunk geometry and a window of depth.
func goldenFeed(src data.Source, depth int) (*feed.Consumer, error) {
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: src.Len(), Batch: goldenBatch, ChunkExamples: goldenChunk})
	if err != nil {
		return nil, err
	}
	fcfg := feed.Config{Plan: plan, Window: depth}
	var f *feed.Feed
	if l, ok := src.(data.Labeled); ok {
		f, err = feed.NewLabeled(l, fcfg)
	} else {
		f, err = feed.New(src, fcfg)
	}
	if err != nil {
		return nil, err
	}
	return f.Subscribe("golden")
}

func goldenDigits() *data.Digits {
	return data.NewDigits(goldenSide, goldenExamples, goldenSeed, 0.05)
}

// trainSingle trains a model on fresh digits with run, through an explicit
// feed when fed, and returns the blob save writes afterwards.
func trainSingle(save func(w io.Writer) error, cfg core.TrainConfig, fed bool,
	run func(cfg core.TrainConfig, src *data.Digits) (*core.Result, error)) ([]byte, []float64, *core.Result, error) {
	src := goldenDigits()
	if fed {
		c, err := goldenFeed(src, cfg.BufferDepth)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Feed = c
	}
	res, err := run(cfg, src)
	if err != nil {
		return nil, nil, nil, err
	}
	var blob bytes.Buffer
	if err := save(&blob); err != nil {
		return nil, nil, nil, err
	}
	return blob.Bytes(), res.EpochLoss, res, nil
}

var goldenJobs = []goldenJob{
	{name: "ae", depth: 2, train: func(ctx *blas.Context, cfg core.TrainConfig, fed bool) ([]byte, []float64, *core.Result, error) {
		m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: goldenSide * goldenSide, Hidden: 16,
			Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Batch: goldenBatch, Seed: goldenSeed})
		if err != nil {
			return nil, nil, nil, err
		}
		defer m.Free()
		return trainSingle(m.SaveState, cfg, fed, func(cfg core.TrainConfig, src *data.Digits) (*core.Result, error) {
			return (&core.Trainer{Dev: ctx.Dev, Cfg: cfg}).Run(m, src)
		})
	}},
	{name: "rbm", depth: 3, train: func(ctx *blas.Context, cfg core.TrainConfig, fed bool) ([]byte, []float64, *core.Result, error) {
		m, err := rbm.Build(ctx, rbm.Config{Visible: goldenSide * goldenSide, Hidden: 16, SampleHidden: true,
			Batch: goldenBatch, Seed: goldenSeed})
		if err != nil {
			return nil, nil, nil, err
		}
		defer m.Free()
		return trainSingle(m.SaveState, cfg, fed, func(cfg core.TrainConfig, src *data.Digits) (*core.Result, error) {
			return (&core.Trainer{Dev: ctx.Dev, Cfg: cfg}).Run(m, src)
		})
	}},
	{name: "convnet", depth: 1, train: func(ctx *blas.Context, cfg core.TrainConfig, fed bool) ([]byte, []float64, *core.Result, error) {
		m, err := convnet.Build(ctx, convnet.Config{Side: goldenSide, Filters1: 3, Kernel1: 3, Filters2: 4,
			Kernel2: 3, Pool: 2, Classes: 10, Lambda: 1e-4, Batch: goldenBatch, Seed: goldenSeed})
		if err != nil {
			return nil, nil, nil, err
		}
		defer m.Free()
		return trainSingle(m.SaveState, cfg, fed, func(cfg core.TrainConfig, src *data.Digits) (*core.Result, error) {
			return (&core.Trainer{Dev: ctx.Dev, Cfg: cfg}).RunLabeled(m, src)
		})
	}},
	// mlp has no SaveState; its blob is the downloaded parameter set, so
	// the job pins Upload (at Build) and Download as well as the step.
	{name: "mlp", depth: 2, train: func(ctx *blas.Context, cfg core.TrainConfig, fed bool) ([]byte, []float64, *core.Result, error) {
		m, err := mlp.Build(ctx, mlp.Config{Sizes: []int{goldenSide * goldenSide, 16, 10}, Lambda: 1e-4,
			Batch: goldenBatch, Seed: goldenSeed})
		if err != nil {
			return nil, nil, nil, err
		}
		defer m.Free()
		save := func(w io.Writer) error { return m.Download().Save(w) }
		return trainSingle(save, cfg, fed, func(cfg core.TrainConfig, src *data.Digits) (*core.Result, error) {
			return (&core.Trainer{Dev: ctx.Dev, Cfg: cfg}).RunLabeled(m, src)
		})
	}},
	{name: "stack", depth: 2, train: trainGoldenStack},
}

// trainGoldenStack pre-trains a two-layer autoencoder stack, 64→16→8. The
// bare job goes through stack.PretrainAutoencoders; the fed job drives the
// same layers itself so each can lease from its own feed over the previous
// layer's encodings.
func trainGoldenStack(ctx *blas.Context, cfg core.TrainConfig, fed bool) ([]byte, []float64, *core.Result, error) {
	sizes := []int{goldenSide * goldenSide, 16, 8}
	var blob bytes.Buffer
	var losses []float64
	var last *core.Result
	if !fed {
		res, err := stack.PretrainAutoencoders(ctx, cfg, stack.Config{Sizes: sizes, Lambda: 1e-4, Beta: 0.1,
			Rho: 0.05, Batch: goldenBatch, LR: cfg.LR}, goldenDigits(), goldenSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, l := range res.Layers {
			if err := l.AE.Save(&blob); err != nil {
				return nil, nil, nil, err
			}
			losses = append(losses, l.Train.EpochLoss...)
			last = l.Train
		}
		return blob.Bytes(), losses, last, nil
	}
	var cur data.Source = goldenDigits()
	for i := 0; i+1 < len(sizes); i++ {
		m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: sizes[i], Hidden: sizes[i+1],
			Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Batch: goldenBatch, Seed: goldenSeed + uint64(i)})
		if err != nil {
			return nil, nil, nil, err
		}
		lcfg := cfg
		if lcfg.Feed, err = goldenFeed(cur, cfg.BufferDepth); err != nil {
			m.Free()
			return nil, nil, nil, err
		}
		res, err := (&core.Trainer{Dev: ctx.Dev, Cfg: lcfg}).Run(m, cur)
		p := m.Download()
		m.Free()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := p.Save(&blob); err != nil {
			return nil, nil, nil, err
		}
		losses = append(losses, res.EpochLoss...)
		last = res
		cur = &stack.Encoded{Base: cur, Hidden: sizes[i+1], Encode: p.Encode}
	}
	return blob.Bytes(), losses, last, nil
}

// TestGoldenDigests is the cross-commit behaviour lock: every model family
// × {Baseline, Improved} × {bare source, explicit feed} trains a tiny
// fixed-seed job, and the final PHCK bytes, the epoch losses and the
// simulated time must match the committed digests bit for bit. The served
// families add the outputs of every op at F64 and F32 (servedDigests). The
// in-build bit-identity suites compare two paths of one build; this pins
// both against the past. The assembly and pure-Go micro-kernels round
// differently, so each has its own file; run with -update to regenerate
// the running path's file, and say why in the change.
func TestGoldenDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden", "noasm.json")
	if kernels.AsmKernels() {
		path = filepath.Join("testdata", "golden", "asm.json")
	}
	pool := parallel.NewPool(2)
	defer pool.Close()

	got := map[string]goldenDigest{}
	for _, job := range goldenJobs {
		for _, lvl := range []struct {
			name string
			lvl  core.OptLevel
		}{{"Baseline", core.Baseline}, {"Improved", core.Improved}} {
			for _, fed := range []bool{false, true} {
				name := job.name + "/" + lvl.name + "/bare"
				if fed {
					name = job.name + "/" + lvl.name + "/feed"
				}
				dev := device.New(sim.XeonPhi5110P(), true, pool)
				ctx := core.NewContext(dev, lvl.lvl, 0, goldenSeed)
				cfg := core.TrainConfig{Epochs: goldenEpochs, LR: 0.3, ChunkExamples: goldenChunk,
					BufferDepth: job.depth, Prefetch: true}
				blob, losses, res, err := job.train(ctx, cfg, fed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[name] = digestOf(blob, losses, res)
			}
		}
	}

	for name, d := range servedDigests(t, pool) {
		got[name] = d
	}
	for name, d := range clusterDigests(t) {
		got[name] = d
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d jobs)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d jobs, this build ran %d", path, len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no digest in %s", name, path)
		case g.PHCK != w.PHCK:
			t.Errorf("%s: PHCK sha256 %s, want %s", name, g.PHCK, w.PHCK)
		case fmt.Sprint(g.EpochLoss) != fmt.Sprint(w.EpochLoss):
			t.Errorf("%s: epoch loss bits %v, want %v", name, g.EpochLoss, w.EpochLoss)
		case g.SimSeconds != w.SimSeconds:
			t.Errorf("%s: sim seconds %s, want %s", name, g.SimSeconds, w.SimSeconds)
		case g.Out != w.Out:
			t.Errorf("%s: served output sha256 %s, want %s", name, g.Out, w.Out)
		case g.Params != w.Params:
			t.Errorf("%s: parameter sha256 %s, want %s", name, g.Params, w.Params)
		case fmt.Sprint(g.StepLoss) != fmt.Sprint(w.StepLoss):
			t.Errorf("%s: step loss bits %v, want %v", name, g.StepLoss, w.StepLoss)
		case g.Report != w.Report:
			t.Errorf("%s: report sha256 %s, want %s", name, g.Report, w.Report)
		case fmt.Sprint(g.Ledger) != fmt.Sprint(w.Ledger):
			t.Errorf("%s: per-consumer ledger sha256 %v, want %v", name, g.Ledger, w.Ledger)
		}
	}
}

// digestOf packs a finished job into its digest. The PHCK holds the run's
// cursor and the model blob, as phitrain -export writes it.
func digestOf(blob []byte, losses []float64, res *core.Result) goldenDigest {
	phck := core.EncodeCheckpoint(&core.Checkpoint{
		Step: res.Steps, Chunk: res.Chunks, Examples: res.Examples, Skipped: res.SkippedChunks,
		FirstLoss: res.FirstLoss, EpochLoss: losses, Model: blob,
	})
	sum := sha256.Sum256(phck)
	d := goldenDigest{PHCK: hex.EncodeToString(sum[:]), SimSeconds: strconv.FormatFloat(res.SimSeconds, 'g', -1, 64)}
	for _, l := range losses {
		d.EpochLoss = append(d.EpochLoss, fmt.Sprintf("%016x", math.Float64bits(l)))
	}
	return d
}

// servedFamilies are the models the served part of the lock answers with,
// each built from NewParams(cfg, goldenSeed): both autoencoder decoders,
// both RBM visible types, the classifier and the convnet.
var servedFamilies = []struct {
	name  string
	model func() *serve.Model
}{
	{"ae", func() *serve.Model { return servedAE(false) }},
	{"ae-tied", func() *serve.Model { return servedAE(true) }},
	{"rbm", func() *serve.Model { return servedRBM(false) }},
	{"rbm-gaussian", func() *serve.Model { return servedRBM(true) }},
	{"mlp", func() *serve.Model {
		cfg := mlp.Config{Sizes: []int{goldenSide * goldenSide, 16, 10}, Lambda: 1e-4, Batch: goldenBatch, Seed: goldenSeed}
		return serve.MLP(cfg, mlp.NewParams(cfg, goldenSeed))
	}},
	{"convnet", func() *serve.Model {
		cfg := convnet.Config{Side: goldenSide, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3, Pool: 2,
			Classes: 10, Lambda: 1e-4, Batch: goldenBatch, Seed: goldenSeed}
		return serve.Convnet(cfg, convnet.NewParams(cfg, goldenSeed))
	}},
}

func servedAE(tied bool) *serve.Model {
	cfg := autoencoder.Config{Visible: goldenSide * goldenSide, Hidden: 16, Lambda: 1e-4, Beta: 0.1, Rho: 0.05,
		Tied: tied, Batch: goldenBatch, Seed: goldenSeed}
	return serve.Autoencoder(cfg, autoencoder.NewParams(cfg, goldenSeed))
}

func servedRBM(gaussian bool) *serve.Model {
	cfg := rbm.Config{Visible: goldenSide * goldenSide, Hidden: 16, GaussianVisible: gaussian, Batch: goldenBatch, Seed: goldenSeed}
	return serve.RBM(cfg, rbm.NewParams(cfg, goldenSeed))
}

// servedDigests serves every family at F64 and F32 × {Baseline, Improved}
// and sweeps the golden digits through each op the model answers. Every
// chunk is one batch-sized lease admitted under one lock hold, so each
// reaches its worker as one full batch and the outputs depend on nothing
// but the code. The digest is the SHA-256 of the output bits in example
// order, keyed served/<family>/<precision>/<level>/<op>.
func servedDigests(t *testing.T, pool *parallel.Pool) map[string]goldenDigest {
	t.Helper()
	got := map[string]goldenDigest{}
	for _, fam := range servedFamilies {
		m := fam.model()
		for _, prec := range []serve.Precision{serve.F64, serve.F32} {
			for _, lvl := range []struct {
				name string
				lvl  core.OptLevel
			}{{"Baseline", core.Baseline}, {"Improved", core.Improved}} {
				srv, err := serve.New(m, serve.Config{Level: lvl.lvl, Precision: prec, Workers: 1, PoolWorkers: 2,
					MaxBatch: goldenBatch, QueueDepth: 4 * goldenBatch})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", fam.name, prec, lvl.name, err)
				}
				for _, op := range m.Ops() {
					name := "served/" + fam.name + "/" + prec.String() + "/" + lvl.name + "/" + op.String()
					got[name] = goldenDigest{Out: servedSweep(t, name, srv, op)}
				}
				srv.Close()
			}
		}
	}
	return got
}

// servedSweep scores the golden digits through srv in batch-sized chunks
// and returns the SHA-256 of the outputs' IEEE-754 bits.
func servedSweep(t *testing.T, name string, srv *serve.Server, op serve.Op) string {
	t.Helper()
	src := goldenDigits()
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: src.Len(), Batch: goldenBatch, ChunkExamples: goldenBatch})
	if err != nil {
		t.Fatal(err)
	}
	f, err := feed.New(src, feed.Config{Plan: plan, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := f.Subscribe("golden-served")
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, src.Len())
	res, err := srv.ScoreFeed(op, fc, func(example int, scores []float64) { outs[example] = scores })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Rows != src.Len() || res.Failed != 0 {
		t.Fatalf("%s: %d rows answered, %d failed, want %d and 0", name, res.Rows, res.Failed, src.Len())
	}
	h := sha256.New()
	for _, row := range outs {
		writeBits(h, row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeBits writes the IEEE-754 bits of v to w, little-endian.
func writeBits(w io.Writer, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		w.Write(b[:])
	}
}

// goldenClusterSteps is the length of every cluster job: long enough for
// the crashed node to rejoin and resynchronize, the straggler to lag a
// barrier, and the lost node to be detected.
const goldenClusterSteps = 14

// goldenClusterScript is the cluster jobs' fault schedule. Node 1 crashes
// at step 2 and rejoins at step 5 from the lead's checkpoint; node 2
// straggles at 6× for steps 6 and 7; node 3 is lost for good at step 9,
// and its feed consumer is closed once the detector excises it.
var goldenClusterScript = []cluster.NodeFault{
	{Step: 2, Node: 1, Kind: cluster.FaultCrash, RejoinAfter: 3},
	{Step: 6, Node: 2, Kind: cluster.FaultStall, StallFactor: 6, StallSteps: 2},
	{Step: 9, Node: 3, Kind: cluster.FaultCrash, Permanent: true},
}

// clusterDigests runs the cluster jobs, one per straggler policy: four
// numeric nodes, each a replica of the golden autoencoder, lease
// golden-batch shards from one ledgered feed over the golden digits and
// train goldenClusterSteps steps under goldenClusterScript, averaging
// every second step. The lock leaves free how one step's leases and
// commits interleave across consumers, so the report's feed high-water
// mark (max_outstanding), which follows from that interleaving, is cleared
// before the report is hashed; each consumer's own event sequence is
// pinned through its ledger projection.
func clusterDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	const nodes = 4
	got := map[string]goldenDigest{}
	for _, pol := range []cluster.Policy{cluster.WaitAll, cluster.TimeoutDrop, cluster.BackupNode} {
		name := "cluster/" + pol.String()
		src := goldenDigits()
		plan, err := data.PlanChunks(data.PlanRequest{SourceLen: src.Len(), Batch: goldenBatch, ChunkExamples: goldenBatch})
		if err != nil {
			t.Fatal(err)
		}
		f, err := feed.New(src, feed.Config{Plan: plan, Window: 1, Ledger: true})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(sim.XeonE5620Dual(), core.Improved, cluster.Config{
			Model: autoencoder.Config{Visible: goldenSide * goldenSide, Hidden: 16, Lambda: 1e-4, Beta: 0.1, Rho: 0.05},
			Nodes: nodes, GlobalBatch: nodes * goldenBatch, SyncEvery: 2, Net: cluster.GigabitEthernet(),
			Faults: &cluster.FaultPlan{Script: goldenClusterScript}, Policy: pol, Feed: f,
		}, true, goldenSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var d goldenDigest
		for range goldenClusterSteps {
			loss := cl.Step(nil, 0.3)
			d.StepLoss = append(d.StepLoss, fmt.Sprintf("%016x", math.Float64bits(loss)))
		}
		h := sha256.New()
		writeBits(h, cl.Download().ParamSet().Flatten(nil))
		d.Params = hex.EncodeToString(h.Sum(nil))
		d.SimSeconds = strconv.FormatFloat(cl.SimSeconds(), 'g', -1, 64)
		rep := cl.Report()
		if rep.Crashes != 2 || rep.Rejoins != 1 || rep.Resyncs != 1 || rep.Stalls != 1 || rep.LiveNodes != 3 {
			t.Fatalf("%s: the scripted faults did not all take effect: %+v", name, rep)
		}
		rep.Feed.MaxOutstanding = 0
		d.Report = jsonSHA(t, rep)
		events := f.Events()
		for shard := range nodes {
			var own []feed.Event
			for _, e := range events {
				if e.Shard == shard {
					own = append(own, e)
				}
			}
			d.Ledger = append(d.Ledger, jsonSHA(t, own))
		}
		cl.Free()
		got[name] = d
	}
	return got
}

// jsonSHA returns the SHA-256 of v's JSON encoding.
func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
