// Package cluster simulates the distributed alternative the paper frames
// the Xeon Phi against (§I, §III): data-parallel training across N
// commodity nodes with periodic parameter averaging over an Ethernet
// interconnect — the synchronous cousin of Dean et al.'s large-scale
// approach the paper cites as "Google has distributed a very large deep
// network to hundreds of computing nodes".
//
// Each node owns a simulated device (typically a host CPU) and a model
// replica training on its shard of every global batch. Every SyncEvery
// local steps the replicas average their parameters with a ring all-reduce
// whose cost is latency·2(N−1) + 2·(N−1)/N·bytes/bandwidth. The package's
// experiment answers the paper's implicit question — how much commodity
// cluster does one coprocessor replace? — and reproduces the known result
// that communication, not compute, bounds synchronous clusters on fat
// models.
//
// Unlike the idealized baseline, the cluster degrades the way real ones
// do. A FaultPlan injects deterministic per-node crash faults, transient
// straggler stalls and rejoin events (each node draws from its own seeded
// stream, built on the internal/device fault plumbing). A heartbeat
// failure detector excises silent nodes from the ring, so the all-reduce
// runs over the live membership with averaging weights rescaled to the
// surviving shards and the ring time recomputed for the shrunken ring.
// Straggler mitigation is a per-run Policy: wait for the laggard, drop it
// for the round, or race a hot spare against it. A crashed node rejoins by
// restoring the lead replica's PHCK checkpoint and resynchronizing
// parameters at the next barrier before re-entering the ring. Report
// accounts every sync, drop, stall, detection and resync.
//
// The nodes are simulated parallel machines, and in wall clock they run in
// parallel too: every live node steps on its own goroutine, and the
// barrier downloads, averages (in disjoint element stripes, one goroutine
// each) and uploads concurrently into host buffers allocated once at New,
// so a warm step allocates no parameter- or shard-sized memory. Whatever
// decides the simulated outcome (fault injection, lease order, the loss
// sum, commits, the barrier's policy) runs serially in node order, so
// numerics, simulated time and each feed consumer's ledger equal those of
// a serial loop over the nodes bit for bit.
package cluster

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// Interconnect models the network between nodes.
type Interconnect struct {
	// Bandwidth in bytes/s per link (1 GbE ≈ 125e6, 10 GbE ≈ 1.25e9).
	Bandwidth float64
	// Latency per message hop.
	Latency float64
}

// GigabitEthernet returns the 2013-era commodity interconnect.
func GigabitEthernet() Interconnect { return Interconnect{Bandwidth: 125e6, Latency: 50e-6} }

// TenGigabitEthernet returns the contemporary datacenter interconnect.
func TenGigabitEthernet() Interconnect { return Interconnect{Bandwidth: 1.25e9, Latency: 20e-6} }

// AllReduceTime returns the modeled ring all-reduce time for the given
// payload across n nodes.
func (ic Interconnect) AllReduceTime(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	hops := float64(2 * (n - 1))
	return ic.Latency*hops + 2*float64(n-1)/float64(n)*float64(bytes)/ic.Bandwidth
}

// BroadcastTime returns the modeled point-to-point parameter push used to
// resynchronize one replica (a rejoined node, or a laggard dropped from a
// round pulling the fresh average).
func (ic Interconnect) BroadcastTime(bytes int64) float64 {
	return ic.Latency + float64(bytes)/ic.Bandwidth
}

// Policy selects the straggler-mitigation behavior at sync barriers.
type Policy int

const (
	// WaitAll waits for every participant: the slowest node bounds the
	// round (the synchronous baseline, and the only policy that never
	// changes numerics).
	WaitAll Policy = iota
	// TimeoutDrop excludes participants that miss the round deadline from
	// that round's average; a dropped laggard pulls the fresh average when
	// it finally finishes, discarding its own round.
	TimeoutDrop
	// BackupNode races a hot spare against each laggard: the spare
	// recomputes the laggard's shard at clean speed from the deadline, and
	// whichever finishes first bounds the shard. The gradients are
	// bit-identical, so only the clock changes.
	BackupNode
)

// String names the policy the way phisim's -policy flag spells it.
func (p Policy) String() string {
	switch p {
	case WaitAll:
		return "waitall"
	case TimeoutDrop:
		return "drop"
	case BackupNode:
		return "backup"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "waitall":
		return WaitAll, nil
	case "drop":
		return TimeoutDrop, nil
	case "backup":
		return BackupNode, nil
	}
	return 0, fmt.Errorf("cluster: unknown policy %q (want waitall | drop | backup)", s)
}

// Config parameterizes a cluster training run.
type Config struct {
	Model autoencoder.Config
	// Nodes is the cluster size; GlobalBatch the combined minibatch,
	// split evenly (must divide).
	Nodes       int
	GlobalBatch int
	// SyncEvery is the number of local steps between parameter-averaging
	// rounds (1 = fully synchronous SGD; larger values trade gradient
	// staleness for less communication — "local SGD").
	SyncEvery int
	// Net is the interconnect model.
	Net Interconnect

	// Faults arms the per-node fault model; nil trains the ideal cluster.
	Faults *FaultPlan
	// Policy is the straggler-mitigation policy at sync barriers.
	Policy Policy
	// DropTimeout is how long past the round's fastest participant the
	// TimeoutDrop and BackupNode policies wait before acting. Zero derives
	// 2× the round's mean step time.
	DropTimeout float64
	// HeartbeatTimeout is the failure detector's patience: a ring member
	// silent for this long at a barrier is declared dead and excised, and
	// the survivors cannot complete the round before having waited it out.
	// Zero derives 3× the round's mean step time.
	HeartbeatTimeout float64
	// CheckpointPath, when set, additionally persists the lead replica's
	// PHCK checkpoint to this file at every sync round (the rejoin handoff
	// itself uses the in-memory encoding either way).
	CheckpointPath string

	// Feed, when non-nil, makes every node a distinct consumer of this
	// shared dataset server (DESIGN.md §15), replacing the per-node index
	// slicing of Step's x argument (which is then ignored). The feed's
	// plan must carry exactly one per-node batch per chunk, so node i's
	// step-s shard is global chunk s·Nodes+i by the feed's deterministic
	// shard assignment. A rejoining node re-seeks its consumer to the
	// current step; a node the failure detector declares permanently lost
	// has its consumer closed, releasing its backpressure on the feed.
	Feed *feed.Feed
}

// Cluster is a set of model replicas with synchronized simulated time.
type Cluster struct {
	Cfg     Config
	nodes   []*node
	perNode int
	paramsB int64

	syncedAt  float64 // simulated time of the last completed barrier
	steps     int
	syncCount int

	faulty   bool
	plan     FaultPlan // defaults filled (zero value when Cfg.Faults is nil)
	scripted map[int][]NodeFault
	ckptBlob []byte // lead replica's encoded PHCK checkpoint at the last sync

	// trainers are this step's stepping nodes (reused scratch); avg is the
	// barrier's average (numeric multi-node clusters only).
	trainers []*node
	avg      *autoencoder.Params

	rep   Report
	freed bool
}

// New builds the cluster. Every node gets a fresh device of the given
// architecture at the given optimization level, and all replicas start from
// the same seed.
func New(arch *sim.Arch, lvl core.OptLevel, cfg Config, numeric bool, seed uint64) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.GlobalBatch <= 0 || cfg.GlobalBatch%cfg.Nodes != 0 {
		return nil, fmt.Errorf("cluster: global batch %d must divide evenly across %d nodes", cfg.GlobalBatch, cfg.Nodes)
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 1
	}
	if cfg.Policy != WaitAll && cfg.Policy != TimeoutDrop && cfg.Policy != BackupNode {
		return nil, fmt.Errorf("cluster: unknown policy %d", int(cfg.Policy))
	}
	if cfg.DropTimeout < 0 || cfg.HeartbeatTimeout < 0 {
		return nil, fmt.Errorf("cluster: negative timeout")
	}
	c := &Cluster{Cfg: cfg, perNode: cfg.GlobalBatch / cfg.Nodes}
	if cfg.Faults != nil {
		plan, err := cfg.Faults.withDefaults(cfg.Nodes)
		if err != nil {
			return nil, err
		}
		c.faulty = true
		c.plan = plan
		c.scripted = plan.scriptIndex()
	}
	if f := cfg.Feed; f != nil {
		fp := f.Plan()
		if fp.Batch != c.perNode || fp.ChunkExamples != c.perNode {
			return nil, fmt.Errorf("cluster: feed plan stages %d-example chunks of batch %d, want one %d-example chunk per node per step",
				fp.ChunkExamples, fp.Batch, c.perNode)
		}
		if f.Dim() != cfg.Model.Visible {
			return nil, fmt.Errorf("cluster: feed dim %d, model visible %d", f.Dim(), cfg.Model.Visible)
		}
	}
	v, h := cfg.Model.Visible, cfg.Model.Hidden
	c.paramsB = int64(v*h+h+h*v+v) * 8
	model := cfg.Model
	model.Batch, model.Seed = c.perNode, seed // same seed: identical init
	// Host copies for the barrier: each node downloads into its own, and
	// the average lands in the cluster's. Zero-valued, shaped like the
	// model (ZeroGrad is the package's shape-only constructor).
	averages := numeric && cfg.Nodes > 1
	if averages {
		c.avg = autoencoder.ZeroGrad(model)
	}
	for i := 0; i < cfg.Nodes; i++ {
		dev := device.New(arch, numeric, nil)
		ctx := core.NewContext(dev, lvl, 0, seed+uint64(i))
		m, err := autoencoder.Build(ctx, model)
		if err != nil {
			c.Free()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &node{id: i, m: m, status: statusLive, inRing: true}
		c.nodes = append(c.nodes, n)
		if n.shard, err = dev.Alloc(c.perNode, v); err != nil {
			c.Free()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		if averages {
			n.host = autoencoder.ZeroGrad(model)
		}
		if c.faulty {
			n.stream = c.plan.stream(i)
		}
		if cfg.Feed != nil {
			n.feedc, err = cfg.Feed.Subscribe(fmt.Sprintf("node%d", i))
			if err != nil {
				c.Free()
				return nil, fmt.Errorf("cluster: node %d: %w", i, err)
			}
			if numeric {
				n.stage = tensor.NewMatrix(c.perNode, cfg.Model.Visible)
			}
		}
	}
	return c, nil
}

// Free releases every replica. Free is idempotent: a second call is a
// no-op, so deferred cleanup composes with explicit teardown.
func (c *Cluster) Free() {
	if c.freed {
		return
	}
	c.freed = true
	for _, n := range c.nodes {
		if n.feedc != nil {
			n.feedc.Close()
		}
		if n.shard != nil {
			n.dev().Free(n.shard)
		}
		n.m.Free()
	}
	c.nodes = nil
}

// numeric reports whether the replicas really compute.
func (c *Cluster) numeric() bool { return len(c.nodes) > 0 && c.nodes[0].dev().Numeric }

// Step runs one global step: rejoins scheduled for this step fire, fault
// events are injected, every live node trains on its shard of x
// (GlobalBatch×Visible; nil on timing-only devices), and every SyncEvery
// steps the ring synchronizes over the live membership. Returns the mean
// reconstruction error across the nodes that trained (0 on timing-only
// devices or when every node is down).
//
// The nodes train concurrently, one goroutine each; everything they share
// (fault streams, feed cursors, the loss sum, the report) is handled in
// node order before and after. Within one step the shared feed therefore
// sees every node's lease before any node's commit, and each consumer's
// own events keep their order. A panic on a node's goroutine is
// re-raised on the caller's once every node has finished.
func (c *Cluster) Step(x *tensor.Matrix, lr float64) float64 {
	step := c.steps // 0-based index of the step being executed

	// Scheduled rejoins fire before fault injection, so a node cannot
	// crash and rejoin within the same step.
	for _, n := range c.nodes {
		if n.status == statusCrashed && n.rejoinAt == step {
			c.rejoin(n)
		}
	}
	if c.faulty {
		for _, n := range c.nodes {
			if n.status == statusLive && !n.resync {
				c.injectFaults(n, step)
			}
		}
	}

	// Serial prologue: who trains, from when, on which lease.
	c.trainers = c.trainers[:0]
	for _, n := range c.nodes {
		if n.status != statusLive || n.resync {
			continue
		}
		// Lock-step issue: a node's next shard transfer starts no earlier
		// than the last barrier and its own previous step's end.
		n.earliest = max(c.syncedAt, n.stepEnd)
		n.start = max(n.earliest, n.dev().Now())
		n.leased = false
		if c.Cfg.Feed != nil {
			// The node's consumer must sit at the current step: a rejoined
			// node (or one that idled through an outage) re-seeks here —
			// the ordinal is the global step, so its lease lands on chunk
			// step·Nodes+id, exactly the shard the index math used to cut.
			if n.feedc.Pos() != step {
				if err := n.feedc.Seek(step); err != nil {
					continue
				}
			}
			l, err := n.feedc.Lease()
			if err != nil {
				// Horizon exhausted: the node idles this step.
				continue
			}
			n.lease, n.leased = l, true
		}
		c.trainers = append(c.trainers, n)
	}

	trainers := c.trainers
	fanOut(len(trainers), func(i int) { c.stepNode(trainers[i], x, lr) })

	// Serial epilogue, in node order: the loss sum and the commits.
	lossSum := 0.0
	for _, n := range trainers {
		lossSum += n.loss
		if n.leased {
			// The chunk is drained once the step's compute ends; the
			// commit timestamp is the deterministic simulated clock, so
			// fault-injected runs ledger identically across repeats.
			if err := n.feedc.Commit(n.lease, n.stepEnd, false); err != nil {
				panic(fmt.Sprintf("cluster: feed commit: %v", err))
			}
		}
	}
	c.steps++

	if c.steps%c.Cfg.SyncEvery == 0 && c.Cfg.Nodes > 1 {
		c.sync()
	}
	if len(trainers) == 0 || !c.numeric() {
		return 0
	}
	return lossSum / float64(len(trainers))
}

// stepNode trains one node on its shard: the concurrent body of Step. It
// touches only the node's own device, model, staging matrix and
// bookkeeping.
func (c *Cluster) stepNode(n *node, x *tensor.Matrix, lr float64) {
	dev := n.dev()
	switch {
	case !dev.Numeric:
		dev.CopyIn(n.shard, nil, n.earliest)
	case n.leased:
		if err := c.Cfg.Feed.Fill(n.lease, n.stage); err != nil {
			// Unreachable after New's geometry validation: the lease
			// was granted this step and has not been committed.
			panic(fmt.Sprintf("cluster: feed fill: %v", err))
		}
		dev.CopyIn(n.shard, n.stage, n.earliest)
	default:
		// The transfer copies row by row, so the view needs no packed copy.
		dev.CopyIn(n.shard, x.RowsView(n.id*c.perNode, (n.id+1)*c.perNode), n.earliest)
	}
	n.loss = n.m.Step(n.shard, lr)
	end := dev.Now()
	n.rawDur = end - n.start
	if n.stallLeft > 0 {
		// The straggler's slowdown is injected idle time on its compute
		// engine: numerics identical, clock slower.
		extra := (n.stallFactor - 1) * n.rawDur
		dev.StallCompute(extra)
		n.stallLeft--
		n.r.StallSeconds += extra
		end = dev.Now()
	}
	n.stepEnd = end
	n.lastBeat = end
	n.r.Steps++
}

// fanOut runs f(0), …, f(n−1) on a goroutine each and returns when all
// have; n ≤ 1 runs inline. A panic in any call is re-raised on the
// caller's goroutine once every call has returned — the lowest index's,
// so what recover sees does not depend on scheduling.
func fanOut(n int, f func(i int)) {
	if n <= 1 {
		if n == 1 {
			f(0)
		}
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			f(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// sync runs one barrier round: the failure detector excises silent ring
// members, the straggler policy decides which participants the round keeps,
// the kept replicas all-reduce-average over the shrunken ring, rejoined
// nodes resynchronize, and the lead replica's checkpoint is refreshed.
func (c *Cluster) sync() {
	c.syncCount++
	c.rep.Syncs++
	if metricsOn() {
		mSyncs.Inc()
	}
	parts, receivers := c.partition()
	if len(parts) == 0 {
		// Total outage: nothing trained this round, so there is nothing to
		// average and no survivor to serve a resync from.
		return
	}

	// Round statistics drive the derived timeouts.
	meanDur := 0.0
	minEnd, maxEnd := math.Inf(1), math.Inf(-1)
	for _, n := range parts {
		meanDur += n.rawDur
		if n.stepEnd < minEnd {
			minEnd = n.stepEnd
		}
		if n.stepEnd > maxEnd {
			maxEnd = n.stepEnd
		}
	}
	meanDur /= float64(len(parts))
	hbTimeout := c.Cfg.HeartbeatTimeout
	if hbTimeout == 0 {
		hbTimeout = 3 * meanDur
	}
	dropTimeout := c.Cfg.DropTimeout
	if dropTimeout == 0 {
		dropTimeout = 2 * meanDur
	}
	deadline := minEnd + dropTimeout

	kept := parts
	var dropped []*node
	barrier := maxEnd // WaitAll: the laggard bounds the round
	switch c.Cfg.Policy {
	case TimeoutDrop:
		if maxEnd > deadline {
			kept = kept[:0:0]
			for _, n := range parts {
				if n.stepEnd <= deadline {
					kept = append(kept, n)
				} else {
					dropped = append(dropped, n)
					n.r.Drops++
					c.rep.Drops++
					if metricsOn() {
						mDrops.Inc()
					}
				}
			}
			// The kept nodes wait out the deadline before declaring the
			// laggards dropped.
			barrier = deadline
		}
	case BackupNode:
		barrier = minEnd
		for _, n := range parts {
			end := n.stepEnd
			if end > deadline {
				// The spare starts when the deadline passes and recomputes
				// the laggard's shard at the round's clean pace; the
				// gradients are bit-identical, so the faster of the two
				// bounds the shard.
				if spare := deadline + meanDur; spare < end {
					end = spare
					c.rep.BackupRuns++
					if metricsOn() {
						mBackupRuns.Inc()
					}
				}
			}
			if end > barrier {
				barrier = end
			}
		}
	}

	// The failure detector: survivors cannot complete the round while an
	// un-excised member is silent — they wait out the heartbeat timeout,
	// then run the ring over the shrunken membership.
	if wait := c.detectFailures(hbTimeout); wait > barrier {
		barrier = wait
	}

	// Ring all-reduce over the kept membership, averaging weights rescaled
	// to the surviving shard sizes (equal shards, so the mean over the
	// survivors), and the ring time recomputed for the shrunken ring.
	c.syncedAt = barrier + c.Cfg.Net.AllReduceTime(c.paramsB, len(kept))
	var avg *autoencoder.Params
	if c.numeric() && len(kept) > 1 {
		avg = c.avg
		averageParams(avg, kept)
		fanOut(len(kept), func(i int) { kept[i].m.Upload(avg) })
	}

	// Dropped laggards pull the fresh average when they finally finish,
	// discarding their own round's work.
	for _, n := range dropped {
		ready := n.stepEnd
		if c.syncedAt > ready {
			ready = c.syncedAt
		}
		ready += c.Cfg.Net.BroadcastTime(c.paramsB)
		if avg != nil {
			n.m.Upload(avg)
		}
		c.catchUp(n, ready)
	}

	// Rejoined replicas resynchronize: a point-to-point push of the fresh
	// parameters before they re-enter the ring.
	for _, n := range receivers {
		ready := c.syncedAt + c.Cfg.Net.BroadcastTime(c.paramsB)
		if c.numeric() {
			if avg == nil {
				avg = c.avg
				kept[0].m.DownloadInto(avg)
			}
			n.m.Upload(avg)
		}
		c.catchUp(n, ready)
		n.resync = false
		n.r.Resyncs++
		c.rep.Resyncs++
		if metricsOn() {
			mResyncs.Inc()
		}
	}

	// Refresh the lead replica's crash-consistent checkpoint — the state a
	// node rejoining after a future crash will boot from. The download is
	// charged to the lead's transfer engine: checkpointing is not free.
	if c.faulty {
		lead := kept[0]
		var blob bytes.Buffer
		if err := lead.m.SaveState(&blob); err == nil {
			ck := &core.Checkpoint{Step: c.steps, Model: blob.Bytes()}
			c.ckptBlob = core.EncodeCheckpoint(ck)
			c.rep.Checkpoints++
			if metricsOn() {
				mCheckpoints.Inc()
			}
			if c.Cfg.CheckpointPath != "" {
				// Best effort: a failed disk write degrades to the
				// in-memory handoff rather than killing training.
				_ = core.WriteCheckpoint(c.Cfg.CheckpointPath, ck)
			}
		}
	}
}

// catchUp advances a node's clock to ready (injected idle time on its
// compute engine) and re-enters it into the lock-step issue order there.
func (c *Cluster) catchUp(n *node, ready float64) {
	if gap := ready - n.dev().Now(); gap > 0 {
		n.dev().StallCompute(gap)
		n.r.DownSeconds += gap
	}
	n.stepEnd = ready
	n.lastBeat = ready
}

// averageParams downloads the participants' parameters into their host
// copies, one goroutine each, and writes their mean into dst. It sorts
// parts by node id and sums in that order whatever order the list was
// assembled in, so the result is bit-identical regardless of node
// iteration order. The elements are split into disjoint stripes, one
// goroutine each, and every element follows one sequence: the lowest id's
// value, += each higher id's in ascending order, then *= 1/n.
func averageParams(dst *autoencoder.Params, parts []*node) {
	slices.SortFunc(parts, func(a, b *node) int { return a.id - b.id })
	fanOut(len(parts), func(i int) { parts[i].m.DownloadInto(parts[i].host) })
	inv := 1 / float64(len(parts))
	stripes := runtime.GOMAXPROCS(0)
	fanOut(stripes, func(s int) {
		for t, d := range flat(dst) {
			lo, hi := len(d)*s/stripes, len(d)*(s+1)/stripes
			d = d[lo:hi]
			copy(d, flat(parts[0].host)[t][lo:hi])
			for _, n := range parts[1:] {
				for j, v := range flat(n.host)[t][lo:hi] {
					d[j] += v
				}
			}
			for j := range d {
				d[j] *= inv
			}
		}
	})
}

// flat lists p's tensors as their backing slices (the host matrices are
// dense, Stride == Cols).
func flat(p *autoencoder.Params) [4][]float64 {
	return [4][]float64{p.W1.Data, p.W2.Data, p.B1, p.B2}
}

// SimSeconds returns the cluster makespan: the last barrier or the latest
// surviving node, whichever is later.
func (c *Cluster) SimSeconds() float64 {
	t := c.syncedAt
	for _, n := range c.nodes {
		if n.status == statusLeft {
			continue
		}
		if now := n.dev().Now(); now > t {
			t = now
		}
	}
	return t
}

// Steps returns global steps executed; Syncs the barrier rounds.
func (c *Cluster) Steps() int { return c.steps }
func (c *Cluster) Syncs() int { return c.syncCount }

// Download returns the lead live replica's parameters (all kept replicas
// agree right after a sync round).
func (c *Cluster) Download() *autoencoder.Params {
	for _, n := range c.nodes {
		if n.status == statusLive && !n.resync {
			return n.m.Download()
		}
	}
	for _, n := range c.nodes {
		if n.status == statusLive {
			return n.m.Download()
		}
	}
	return c.nodes[0].m.Download()
}

// ctxOf exposes a node's context for tests.
func (c *Cluster) ctxOf(i int) *blas.Context { return c.nodes[i].m.Ctx }
