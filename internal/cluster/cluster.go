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
package cluster

import (
	"bytes"
	"fmt"
	"math"
	"sort"

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
	for i := 0; i < cfg.Nodes; i++ {
		dev := device.New(arch, numeric, nil)
		ctx := core.NewContext(dev, lvl, 0, seed+uint64(i))
		m, err := autoencoder.Build(ctx, model)
		if err != nil {
			c.Free()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &node{id: i, m: m, status: statusLive, inRing: true}
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
		c.nodes = append(c.nodes, n)
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

	lossSum, lossN := 0.0, 0
	for _, n := range c.nodes {
		if n.status != statusLive || n.resync {
			continue
		}
		dev := n.dev()
		// Lock-step issue: a node's next shard transfer starts no earlier
		// than the last barrier and its own previous step's end.
		earliest := c.syncedAt
		if n.stepEnd > earliest {
			earliest = n.stepEnd
		}
		start := earliest
		if t := dev.Now(); t > start {
			start = t
		}
		var lease feed.Lease
		leased := false
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
			lease, leased = l, true
		}
		shard := dev.MustAlloc(c.perNode, c.Cfg.Model.Visible)
		if !dev.Numeric {
			dev.CopyIn(shard, nil, earliest)
		} else if leased {
			if err := c.Cfg.Feed.Fill(lease, n.stage); err != nil {
				// Unreachable after New's geometry validation: the lease
				// was granted this step and has not been committed.
				panic(fmt.Sprintf("cluster: feed fill: %v", err))
			}
			dev.CopyIn(shard, n.stage, earliest)
		} else {
			dev.CopyIn(shard, x.RowsView(n.id*c.perNode, (n.id+1)*c.perNode).Contiguous(), earliest)
		}
		lossSum += n.m.Step(shard, lr)
		lossN++
		dev.Free(shard)
		end := dev.Now()
		n.rawDur = end - start
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
		if leased {
			// The chunk is drained once the step's compute ends; the
			// commit timestamp is the deterministic simulated clock, so
			// fault-injected runs ledger identically across repeats.
			if err := n.feedc.Commit(lease, end, false); err != nil {
				panic(fmt.Sprintf("cluster: feed commit: %v", err))
			}
		}
	}
	c.steps++

	if c.steps%c.Cfg.SyncEvery == 0 && c.Cfg.Nodes > 1 {
		c.sync()
	}
	if lossN == 0 || !c.numeric() {
		return 0
	}
	return lossSum / float64(lossN)
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
		avg = averageParams(kept)
		for _, n := range kept {
			n.m.Upload(avg)
		}
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
				avg = kept[0].m.Download()
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

// averageParams returns the mean of the participants' parameters. The sum
// is accumulated in ascending node-id order whatever order the participant
// list was assembled in, so the result is bit-identical regardless of node
// iteration order.
func averageParams(parts []*node) *autoencoder.Params {
	sorted := append([]*node(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	params := make([]*autoencoder.Params, len(sorted))
	for i, n := range sorted {
		params[i] = n.m.Download()
	}
	avg := params[0]
	accumulate := func(dst, src *tensor.Matrix) {
		for r := 0; r < dst.Rows; r++ {
			d, s := dst.RowView(r), src.RowView(r)
			for j := range d {
				d[j] += s[j]
			}
		}
	}
	for _, p := range params[1:] {
		accumulate(avg.W1, p.W1)
		accumulate(avg.W2, p.W2)
		for j := range avg.B1 {
			avg.B1[j] += p.B1[j]
		}
		for j := range avg.B2 {
			avg.B2[j] += p.B2[j]
		}
	}
	inv := 1 / float64(len(params))
	scale := func(m *tensor.Matrix) {
		for r := 0; r < m.Rows; r++ {
			row := m.RowView(r)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	scale(avg.W1)
	scale(avg.W2)
	for j := range avg.B1 {
		avg.B1[j] *= inv
	}
	for j := range avg.B2 {
		avg.B2[j] *= inv
	}
	return avg
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
