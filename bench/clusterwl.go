package main

import (
	"time"

	"phideep/internal/cluster"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/feed"
	"phideep/internal/sim"
)

const spanClusterStep = "cluster.step"

// Cluster geometry: 4 nodes x AE 1024->256, global batch 256 over GbE.
const (
	clusterNodes  = 4
	clusterBatch  = 256
	clusterWarmup = 10
	clusterSteps  = 140
	clusterLR     = 0.5
	// clusterTarget is the step loss that counts as trained: every seed
	// tried falls below it around step 60 of the nominal 150.
	clusterTarget = 30.0
)

// clusterExamples is the shared dataset; a variable so the smoke test can
// shrink it.
var clusterExamples = 4096

// clusterRig is one cluster over one shared feed.
type clusterRig struct {
	cl *cluster.Cluster
	fd *feed.Feed
}

func newClusterRig(cfg runCfg, syncEvery int, tr *tracer) (*clusterRig, error) {
	perNode := clusterBatch / clusterNodes
	var src data.Labeled = data.NewDigits(32, clusterExamples, cfg.seed, 0.05)
	if tr != nil {
		src = tracedSource{src, tr}
	}
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: clusterExamples, Batch: perNode, ChunkExamples: perNode})
	if err != nil {
		return nil, err
	}
	fd, err := feed.New(src, feed.Config{Plan: plan, Window: 1})
	if err != nil {
		return nil, err
	}
	acfg := openAEConfig(cfg.seed)
	cl, err := cluster.New(sim.XeonE5620Dual(), core.Improved, cluster.Config{Model: acfg,
		Nodes: clusterNodes, GlobalBatch: clusterBatch, SyncEvery: syncEvery,
		Net: cluster.GigabitEthernet(), Policy: cluster.WaitAll, Feed: fd}, true, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &clusterRig{cl, fd}, nil
}

// steps runs n cluster steps and returns each one's wall seconds and loss.
func (r *clusterRig) steps(n int, tr *tracer) (wall, loss []float64) {
	for i := 0; i < n; i++ {
		id := tr.begin(spanClusterStep)
		t0 := time.Now()
		l := r.cl.Step(nil, clusterLR) // the feed supplies the shards
		wall = append(wall, time.Since(t0).Seconds())
		tr.end(id)
		loss = append(loss, l)
	}
	return wall, loss
}

// clusterInstance is the set-up cluster workload, its warm-up steps done.
type clusterInstance struct {
	cfg      runCfg
	tr       *tracer
	rig      *clusterRig
	warmLoss []float64
	steps    int
}

func setupCluster(cfg runCfg, tr *tracer) (instance, error) {
	rig, err := newClusterRig(cfg, 1, tr)
	if err != nil {
		return nil, err
	}
	_, loss := rig.steps(cfg.count(clusterWarmup, clusterWarmup), nil)
	return &clusterInstance{cfg: cfg, tr: tr, rig: rig, warmLoss: loss,
		steps: cfg.count(clusterSteps, 100)}, nil
}

func (ci *clusterInstance) close() { ci.rig.cl.Free() }

func (ci *clusterInstance) run() (*outcome, error) {
	ci.tr.reset()
	simBefore := ci.rig.cl.SimSeconds()
	start := time.Now()
	wall, loss := ci.rig.steps(ci.steps, ci.tr)
	o := &outcome{unit: wall, wall: time.Since(start).Seconds(), spans: ci.tr.snapshot(),
		attempted: ci.steps}
	o.rowsPerS = clusterBatch / median(wall)

	warm := len(ci.warmLoss)
	total := warm + ci.steps
	rep := ci.rig.cl.Report()
	o.check("no node degraded", rep.LiveNodes == clusterNodes && rep.Crashes+rep.Stalls+rep.Drops+rep.Detections+rep.Resyncs == 0,
		"%d live, %d crashes, %d stalls, %d drops, %d detections, %d resyncs",
		rep.LiveNodes, rep.Crashes, rep.Stalls, rep.Drops, rep.Detections, rep.Resyncs)
	o.check("one sync per step", rep.Steps == total && rep.Syncs == total, "%d steps, %d syncs, want %d", rep.Steps, rep.Syncs, total)
	last := loss
	if len(last) > warm {
		last = last[len(last)-warm:]
	}
	head, tail := median(ci.warmLoss), median(last)
	o.check("loss decreases", tail < head, "median of the last %d steps %v, of the warm-up steps %v", len(last), tail, head)
	fs := ci.rig.fd.Stats()
	o.check("feed leases = commits = nodes x steps, no stalls",
		fs.Leases == clusterNodes*total && fs.Commits == fs.Leases && fs.Stalls == 0 && fs.Outstanding == 0,
		"%+v, want %d leases", fs, clusterNodes*total)
	setFeedStats(o, fs)

	all := append(append([]float64(nil), ci.warmLoss...), loss...)
	if units := unitsToTarget(all, clusterTarget); units == units { // not NaN
		o.set("models.units_to_target", units, 1)
		o.set("models.time_to_target_s", units*median(wall), len(wall))
	}
	o.set("cluster.syncs", float64(rep.Syncs-warm), 1)
	o.set("sim.seconds", ci.rig.cl.SimSeconds()-simBefore, 1)
	o.set("sim.over_wall", (ci.rig.cl.SimSeconds()-simBefore)/o.wall, 1)
	if ci.tr != nil {
		chunks := durations(o.spans, spanChunk)
		o.set("models.step_ms.p50", 1e3*median(wall), len(wall))
		o.set("data.chunk.us_per_example", 1e6*sum(chunks)/float64(clusterBatch*ci.steps), len(chunks))
		o.set("data.chunk.share", sum(chunks)/o.wall, len(chunks))
	}
	return o, nil
}

// extras times the same steps without parameter averaging; what
// SyncEvery 1 adds per step is the cost of sync.
func (ci *clusterInstance) extras(o *outcome) error {
	rig, err := newClusterRig(ci.cfg, 1<<30, nil)
	if err != nil {
		return err
	}
	defer rig.cl.Free()
	rig.steps(len(ci.warmLoss), nil)
	wall, _ := rig.steps(ci.cfg.count(30, 30), nil)
	syncMs := 1e3 * (median(o.unit) - median(wall))
	o.set("cluster.sync_ms", syncMs, len(wall))
	o.set("cluster.sync.share", syncMs/(1e3*median(o.unit)), len(wall))
	return nil
}
