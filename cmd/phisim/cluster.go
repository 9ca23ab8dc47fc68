package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"phideep/internal/autoencoder"
	"phideep/internal/cluster"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/nn"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// clusterFlags is the -nodes mode's command line: a degraded-cluster
// training run over the modeled interconnect, with deterministic fault
// injection and a JSON degradation report.
type clusterFlags struct {
	nodes       int
	steps       int
	feed        bool
	globalBatch int
	syncEvery   int
	visible     int
	hidden      int
	nodeArch    string
	net         string
	numeric     bool
	policy      string
	lr          float64
	seed        uint64

	faultRate     float64
	crashFrac     float64
	permanentFrac float64
	rejoinAfter   int
	stallFactor   float64
	stallSteps    int
	faultSeed     uint64

	dropTimeout float64
	hbTimeout   float64
	report      string
}

// registerClusterFlags declares the -nodes mode flags on the default set.
func registerClusterFlags(f *clusterFlags) {
	flag.IntVar(&f.nodes, "nodes", 0, "simulate an N-node commodity cluster instead of describing platforms")
	flag.IntVar(&f.steps, "cluster-steps", 100, "global training steps to run")
	flag.BoolVar(&f.feed, "feed", false, "stream every node from one shared dataset feed (lease/commit protocol) instead of per-node index math")
	flag.IntVar(&f.globalBatch, "global-batch", 0, "combined minibatch split across the nodes (default 100 per node)")
	flag.IntVar(&f.syncEvery, "sync-every", 1, "local steps between parameter-averaging rounds")
	flag.IntVar(&f.visible, "visible", 256, "autoencoder input units")
	flag.IntVar(&f.hidden, "hidden", 64, "autoencoder hidden units")
	flag.StringVar(&f.nodeArch, "node-arch", "cpu8", "per-node hardware: cpu1 | cpu4 | cpu8")
	flag.StringVar(&f.net, "net", "gbe", "interconnect: gbe | 10gbe")
	flag.BoolVar(&f.numeric, "numeric", false, "really compute on every replica (vs. timing-only)")
	flag.StringVar(&f.policy, "policy", "waitall", "straggler policy: waitall | drop | backup")
	flag.Float64Var(&f.lr, "lr", 0.5, "learning rate")
	flag.Uint64Var(&f.seed, "seed", 1, "model/data RNG seed")

	flag.Float64Var(&f.faultRate, "node-fault-rate", 0, "per-node per-step fault probability [0,1) — 0 disables injection")
	flag.Float64Var(&f.crashFrac, "node-fault-crash", 0.5, "fraction of faults that are crashes (rest are stalls) [0,1]")
	flag.Float64Var(&f.permanentFrac, "node-fault-permanent", 0, "fraction of crashes that are permanent node losses [0,1]")
	flag.IntVar(&f.rejoinAfter, "node-rejoin-after", 0, "steps a crashed node stays down before rejoining (0 = default 8)")
	flag.Float64Var(&f.stallFactor, "straggler-factor", 0, "step-time multiplier for straggler stalls (0 = default 4)")
	flag.IntVar(&f.stallSteps, "straggler-steps", 0, "consecutive steps a stall lasts (0 = default 1)")
	flag.Uint64Var(&f.faultSeed, "fault-seed", 1, "seed of the per-node fault streams")

	flag.Float64Var(&f.dropTimeout, "drop-timeout", 0, "simulated seconds past the fastest node before drop/backup act (0 = 2x mean step)")
	flag.Float64Var(&f.hbTimeout, "heartbeat-timeout", 0, "failure-detector patience in simulated seconds (0 = 3x mean step)")
	flag.StringVar(&f.report, "report", "", "write the JSON degradation report to this file (\"-\" = stdout)")
}

// pickNodeArch maps the -node-arch flag to a host platform (cluster nodes
// are commodity CPU boxes; the coprocessor is the thing they are compared
// against, not a member).
func pickNodeArch(name string) (*sim.Arch, error) {
	switch name {
	case "cpu1":
		return sim.XeonE5620Core(), nil
	case "cpu4":
		return sim.XeonE5620Full(), nil
	case "cpu8":
		return sim.XeonE5620Dual(), nil
	}
	return nil, fmt.Errorf("unknown -node-arch %q (want cpu1 | cpu4 | cpu8)", name)
}

// clusterConfig validates the flags at startup — sharing the fault-range
// validator with phitrain's -fault-* flags — and assembles the run config.
func clusterConfig(f clusterFlags) (cluster.Config, error) {
	var cfg cluster.Config
	if err := (device.FaultConfig{Rate: f.faultRate, PermanentFrac: f.crashFrac}).Validate(); err != nil {
		return cfg, fmt.Errorf("bad -node-fault-* flags: %w", err)
	}
	policy, err := cluster.ParsePolicy(f.policy)
	if err != nil {
		return cfg, err
	}
	var net cluster.Interconnect
	switch f.net {
	case "gbe":
		net = cluster.GigabitEthernet()
	case "10gbe":
		net = cluster.TenGigabitEthernet()
	default:
		return cfg, fmt.Errorf("unknown -net %q (want gbe | 10gbe)", f.net)
	}
	if f.steps <= 0 {
		return cfg, fmt.Errorf("-cluster-steps must be positive, got %d", f.steps)
	}
	batch := f.globalBatch
	if batch == 0 {
		batch = 100 * f.nodes
	}
	cfg = cluster.Config{
		Model:            autoencoder.Config{Visible: f.visible, Hidden: f.hidden, Lambda: 1e-4},
		Nodes:            f.nodes,
		GlobalBatch:      batch,
		SyncEvery:        f.syncEvery,
		Net:              net,
		Policy:           policy,
		DropTimeout:      f.dropTimeout,
		HeartbeatTimeout: f.hbTimeout,
	}
	if f.faultRate > 0 {
		cfg.Faults = &cluster.FaultPlan{
			Rate:          f.faultRate,
			CrashFrac:     f.crashFrac,
			PermanentFrac: f.permanentFrac,
			RejoinAfter:   f.rejoinAfter,
			StallFactor:   f.stallFactor,
			StallSteps:    f.stallSteps,
			Seed:          f.faultSeed,
		}
	}
	return cfg, nil
}

// runCluster executes the -nodes mode: build the cluster, train for the
// requested steps under the fault plan, print the degradation summary, and
// optionally write the JSON report.
func runCluster(f clusterFlags, out io.Writer) error {
	cfg, err := clusterConfig(f)
	if err != nil {
		return err
	}
	arch, err := pickNodeArch(f.nodeArch)
	if err != nil {
		return err
	}
	var x *tensor.Matrix
	if f.numeric {
		x = lowRankBatch(rng.New(f.seed+100), cfg.GlobalBatch, f.visible)
	}
	if f.feed {
		// One shared dataset server; every node subscribes as a distinct
		// consumer. With SourceLen = GlobalBatch the lease walk covers the
		// exact rows the index math used to slice, so -feed changes the
		// data plane, not the numerics.
		if cfg.Nodes < 1 || cfg.GlobalBatch%cfg.Nodes != 0 {
			return fmt.Errorf("-feed: global batch %d does not split across %d nodes", cfg.GlobalBatch, cfg.Nodes)
		}
		perNode := cfg.GlobalBatch / cfg.Nodes
		p, err := data.PlanChunks(data.PlanRequest{SourceLen: cfg.GlobalBatch, Batch: perNode, ChunkExamples: perNode})
		if err != nil {
			return fmt.Errorf("-feed: %w", err)
		}
		var src data.Source = data.Null{D: f.visible, N: cfg.GlobalBatch}
		if f.numeric {
			src = data.InMemory{X: x}
		}
		fd, err := feed.New(src, feed.Config{Plan: p})
		if err != nil {
			return fmt.Errorf("-feed: %w", err)
		}
		cfg.Feed = fd
	}
	cl, err := cluster.New(arch, core.OpenMPMKL, cfg, f.numeric, f.seed)
	if err != nil {
		return err
	}
	defer cl.Free()
	first, last := 0.0, 0.0
	for i := 0; i < f.steps; i++ {
		l := cl.Step(x, f.lr)
		if i == 0 {
			first = l
		}
		last = l
	}

	rep := cl.Report()
	fmt.Fprintf(out, "cluster: %d x %s over %s, policy %s, sync every %d\n",
		f.nodes, arch.Name, f.net, rep.Policy, cfg.SyncEvery)
	fmt.Fprintf(out, "  steps=%d syncs=%d simulated time: %.3f s\n", rep.Steps, rep.Syncs, rep.SimSeconds)
	if f.numeric {
		fmt.Fprintf(out, "  loss: first=%.5f final=%.5f\n", first, last)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(out, "  faults: %d crashes (%d permanent), %d stalls, %d drops, %d backup runs\n",
			rep.Crashes, rep.PermanentLosses, rep.Stalls, rep.Drops, rep.BackupRuns)
		fmt.Fprintf(out, "  recovery: %d detections, %d rejoins, %d resyncs, %d checkpoints\n",
			rep.Detections, rep.Rejoins, rep.Resyncs, rep.Checkpoints)
		fmt.Fprintf(out, "  membership: %d/%d nodes live at end\n", rep.LiveNodes, rep.Nodes)
	}
	if rep.Feed != nil {
		fmt.Fprintf(out, "  feed: %d consumers over %d shards; %d leases, %d commits, %d stalls, %d seeks\n",
			rep.Feed.Consumers, rep.Feed.Shards, rep.Feed.Leases, rep.Feed.Commits, rep.Feed.Stalls, rep.Feed.Seeks)
	}
	if f.report != "" {
		if err := writeClusterReport(f.report, rep, out); err != nil {
			return err
		}
	}
	return nil
}

// writeClusterReport marshals the degradation ledger as indented JSON.
func writeClusterReport(path string, rep cluster.Report, out io.Writer) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = out.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// lowRankBatch synthesizes a rank-2 sigmoid dataset — structured enough
// that the replicas' reconstruction loss visibly falls.
func lowRankBatch(r *rng.RNG, n, dim int) *tensor.Matrix {
	u := tensor.NewMatrix(n, 2).Randomize(r, -2, 2)
	v := tensor.NewMatrix(2, dim).Randomize(r, -2, 2)
	x := tensor.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			s := u.At(i, 0)*v.At(0, j) + u.At(i, 1)*v.At(1, j)
			x.Set(i, j, nn.Sigmoid(s))
		}
	}
	return x
}
