package cluster

import (
	"math"
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// faultyCfg is smallCfg with an armed fault plan.
func faultyCfg(nodes, syncEvery int, plan *FaultPlan) Config {
	cfg := smallCfg(nodes, syncEvery)
	cfg.Faults = plan
	return cfg
}

// runFaulty trains a fresh cluster for steps steps and returns it (caller
// frees).
func runFaulty(t *testing.T, cfg Config, steps int, seed uint64) *Cluster {
	t.Helper()
	cl, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	x := lowRank(rng.New(8), cfg.GlobalBatch, cfg.Model.Visible)
	for i := 0; i < steps; i++ {
		cl.Step(x, 0.5)
	}
	return cl
}

// paramsEqual reports bit-identity of two parameter sets.
func paramsEqual(a, b *autoencoder.Params) bool {
	if tensor.MaxAbsDiff(a.W1, b.W1) != 0 || tensor.MaxAbsDiff(a.W2, b.W2) != 0 {
		return false
	}
	for i := range a.B1 {
		if a.B1[i] != b.B1[i] {
			return false
		}
	}
	for i := range a.B2 {
		if a.B2[i] != b.B2[i] {
			return false
		}
	}
	return true
}

// TestFaultedRunIsDeterministic: a fault-injected run with a fixed seed is
// bit-identical across repeated invocations — same parameters, same
// degradation ledger, same simulated makespan.
func TestFaultedRunIsDeterministic(t *testing.T) {
	plan := &FaultPlan{Rate: 0.15, CrashFrac: 0.4, PermanentFrac: 0.2, RejoinAfter: 3, Seed: 11}
	run := func() (*autoencoder.Params, Report) {
		cl := runFaulty(t, faultyCfg(4, 2, plan), 40, 7)
		defer cl.Free()
		return cl.Download(), cl.Report()
	}
	p1, r1 := run()
	p2, r2 := run()
	if !paramsEqual(p1, p2) {
		t.Fatal("fault-injected runs with the same seed diverged")
	}
	if r1.Crashes != r2.Crashes || r1.Stalls != r2.Stalls || r1.Rejoins != r2.Rejoins ||
		r1.Resyncs != r2.Resyncs || r1.Detections != r2.Detections || r1.SimSeconds != r2.SimSeconds {
		t.Fatalf("degradation ledgers diverged: %+v vs %+v", r1, r2)
	}
	if r1.Crashes == 0 && r1.Stalls == 0 {
		t.Fatal("fault plan at rate 0.15 over 160 node-steps injected nothing")
	}
}

// TestStragglerChangesOnlyTheClock: a transient-straggler run (WaitAll)
// matches the clean run's final parameters bit-for-bit while reporting
// strictly greater simulated time — slowdowns are charged to the clock,
// never to the numerics.
func TestStragglerChangesOnlyTheClock(t *testing.T) {
	clean := runFaulty(t, smallCfg(3, 1), 12, 7)
	defer clean.Free()
	plan := &FaultPlan{Script: []NodeFault{
		{Step: 2, Node: 1, Kind: FaultStall, StallFactor: 6, StallSteps: 3},
		{Step: 8, Node: 0, Kind: FaultStall, StallFactor: 3, StallSteps: 1},
	}}
	slow := runFaulty(t, faultyCfg(3, 1, plan), 12, 7)
	defer slow.Free()

	if !paramsEqual(clean.Download(), slow.Download()) {
		t.Fatal("straggler stalls changed the numerics")
	}
	if !(slow.SimSeconds() > clean.SimSeconds()) {
		t.Fatalf("straggler run not slower: %g vs clean %g", slow.SimSeconds(), clean.SimSeconds())
	}
	rep := slow.Report()
	if rep.Stalls != 2 || rep.PerNode[1].Stalls != 1 || rep.PerNode[0].Stalls != 1 {
		t.Fatalf("stall accounting off: %+v", rep)
	}
	if rep.PerNode[1].StallSeconds <= 0 {
		t.Fatal("stalled node reports no stall seconds")
	}
}

// TestClusterRecovery: node 2 crashes at step 6 and rejoins 6 steps later
// via the lead replica's checkpoint; the run converges into the clean
// run's loss band, and the Report accounts the crash, the detection, the
// rejoin-restore and the resync exactly as injected. (ci.sh re-runs this
// test with -count=2 as a determinism spot-check.)
func TestClusterRecovery(t *testing.T) {
	const steps = 120
	cfg := smallCfg(4, 2)
	clean, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Free()
	plan := &FaultPlan{Script: []NodeFault{{Step: 6, Node: 2, Kind: FaultCrash, RejoinAfter: 6}}}
	faulty, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, faultyCfg(4, 2, plan), true, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Free()

	x := lowRank(rng.New(10), cfg.GlobalBatch, cfg.Model.Visible)
	var cleanFirst, cleanLast, faultyLast float64
	for i := 0; i < steps; i++ {
		l := clean.Step(x, 1.0)
		if i == 0 {
			cleanFirst = l
		}
		cleanLast = l
		faultyLast = faulty.Step(x, 1.0)
	}
	if !(cleanLast < 0.5*cleanFirst) {
		t.Fatalf("clean cluster did not learn: %g → %g", cleanFirst, cleanLast)
	}
	// The crash-and-rejoin run lands in the clean run's loss band.
	if math.Abs(faultyLast-cleanLast) > 0.25*cleanLast {
		t.Fatalf("recovered run outside the clean loss band: %g vs %g", faultyLast, cleanLast)
	}

	rep := faulty.Report()
	// Cross-check the ledger against the injected schedule: one crash on
	// node 2, detected at the next barrier, one checkpoint restore, one
	// rejoin, one resync; nothing else.
	if rep.Crashes != 1 || rep.PerNode[2].Crashes != 1 {
		t.Fatalf("crashes: %+v", rep)
	}
	if rep.Detections != 1 || rep.PerNode[2].Detections != 1 {
		t.Fatalf("detections: %+v", rep)
	}
	if rep.Rejoins != 1 || rep.PerNode[2].Rejoins != 1 {
		t.Fatalf("rejoins: %+v", rep)
	}
	if rep.PerNode[2].Restores != 1 {
		t.Fatalf("checkpoint restores: %+v", rep.PerNode[2])
	}
	if rep.Resyncs != 1 || rep.PerNode[2].Resyncs != 1 {
		t.Fatalf("resyncs: %+v", rep)
	}
	if rep.Stalls != 0 || rep.Drops != 0 || rep.PermanentLosses != 0 {
		t.Fatalf("phantom events in ledger: %+v", rep)
	}
	if rep.Checkpoints == 0 {
		t.Fatal("lead replica never checkpointed")
	}
	if rep.LiveNodes != 4 {
		t.Fatalf("membership did not recover: %d live", rep.LiveNodes)
	}
	// The crashed node missed exactly its downtime: 6 crash-to-rejoin
	// steps plus the SyncEvery=2 resync round it sat out.
	if want := steps - 8; rep.PerNode[2].Steps != want {
		t.Fatalf("node 2 trained %d steps, want %d", rep.PerNode[2].Steps, want)
	}
	if rep.PerNode[2].DownSeconds <= 0 {
		t.Fatal("downtime not charged to the rejoined node")
	}
}

// TestPermanentLossDegradesMembership: a permanent crash shrinks the ring
// for good; the detector charges the heartbeat timeout once, the report
// shows the lost member, and training continues on the survivors.
func TestPermanentLossDegradesMembership(t *testing.T) {
	plan := &FaultPlan{Script: []NodeFault{{Step: 4, Node: 0, Kind: FaultCrash, Permanent: true}}}
	cfg := faultyCfg(3, 1, plan)
	cfg.HeartbeatTimeout = 2.0 // generous, so the detection wait is visible
	cl := runFaulty(t, cfg, 20, 5)
	defer cl.Free()

	rep := cl.Report()
	if rep.Crashes != 1 || rep.PermanentLosses != 1 || rep.Detections != 1 {
		t.Fatalf("ledger: %+v", rep)
	}
	if rep.Rejoins != 0 || rep.Resyncs != 0 {
		t.Fatalf("a permanent loss must not rejoin: %+v", rep)
	}
	if rep.LiveNodes != 2 {
		t.Fatalf("membership: %d live, want 2", rep.LiveNodes)
	}
	if !rep.PerNode[1].Live || rep.PerNode[0].Live {
		t.Fatalf("per-node liveness wrong: %+v", rep.PerNode)
	}
	// The survivors waited out the heartbeat timeout before excising the
	// dead member, so the makespan clears crash time + timeout.
	if rep.SimSeconds < 2.0 {
		t.Fatalf("detection wait not charged: makespan %g", rep.SimSeconds)
	}
	// Training on the shrunken ring still learns.
	clean := runFaulty(t, smallCfg(3, 1), 20, 5)
	defer clean.Free()
	if cl.SimSeconds() <= clean.SimSeconds() {
		t.Fatal("degraded run should not be faster than the clean run")
	}
}

// TestTimeoutDropPolicy: a hard straggler under TimeoutDrop is dropped
// from the round instead of bounding it; the round completes earlier than
// under WaitAll and the drop is accounted.
func TestTimeoutDropPolicy(t *testing.T) {
	plan := &FaultPlan{Script: []NodeFault{{Step: 3, Node: 1, Kind: FaultStall, StallFactor: 20, StallSteps: 1}}}
	wait := runFaulty(t, faultyCfg(3, 1, plan), 8, 7)
	defer wait.Free()

	cfgDrop := faultyCfg(3, 1, plan)
	cfgDrop.Policy = TimeoutDrop
	drop := runFaulty(t, cfgDrop, 8, 7)
	defer drop.Free()

	if drop.Report().Drops == 0 {
		t.Fatalf("no drops recorded: %+v", drop.Report())
	}
	if !(drop.SimSeconds() < wait.SimSeconds()) {
		t.Fatalf("TimeoutDrop not faster than WaitAll: %g vs %g", drop.SimSeconds(), wait.SimSeconds())
	}
}

// TestBackupNodePolicy: the hot spare races the straggler, capping the
// round while leaving the numerics bit-identical to WaitAll (the spare's
// gradient is the same bits).
func TestBackupNodePolicy(t *testing.T) {
	plan := &FaultPlan{Script: []NodeFault{{Step: 3, Node: 1, Kind: FaultStall, StallFactor: 20, StallSteps: 2}}}
	wait := runFaulty(t, faultyCfg(3, 1, plan), 8, 7)
	defer wait.Free()

	cfgBk := faultyCfg(3, 1, plan)
	cfgBk.Policy = BackupNode
	backup := runFaulty(t, cfgBk, 8, 7)
	defer backup.Free()

	if backup.Report().BackupRuns == 0 {
		t.Fatalf("no backup activations recorded: %+v", backup.Report())
	}
	if !paramsEqual(wait.Download(), backup.Download()) {
		t.Fatal("backup policy changed the numerics")
	}
	if !(backup.SimSeconds() < wait.SimSeconds()) {
		t.Fatalf("BackupNode not faster than WaitAll: %g vs %g", backup.SimSeconds(), wait.SimSeconds())
	}
}

// TestDegradedAllReduceShrinks: on a model-only fat model, losing a node
// permanently makes later rounds cheaper than the full ring (the ring time
// is recomputed for the shrunken membership).
func TestDegradedAllReduceShrinks(t *testing.T) {
	base := Config{
		Model:       autoencoder.Config{Visible: 1024, Hidden: 4096},
		Nodes:       8,
		GlobalBatch: 800,
		SyncEvery:   1,
		Net:         GigabitEthernet(),
	}
	run := func(cfg Config) float64 {
		cl, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Free()
		// Time only the steady state after the loss is detected.
		for i := 0; i < 12; i++ {
			cl.Step(nil, 0.1)
		}
		return cl.SimSeconds()
	}
	full := run(base)
	degraded := base
	degraded.Faults = &FaultPlan{Script: []NodeFault{{Step: 0, Node: 3, Kind: FaultCrash, Permanent: true}}}
	degraded.HeartbeatTimeout = 1e-6 // detect instantly: isolate the ring-size effect
	lost := run(degraded)
	if !(lost < full) {
		t.Fatalf("7-node ring should beat 8-node ring on a fat model: %g vs %g", lost, full)
	}
}

// TestAverageParamsOrderIndependent: the all-reduce average is bit-
// identical regardless of the order the participant list is assembled in.
func TestAverageParamsOrderIndependent(t *testing.T) {
	cl := runFaulty(t, smallCfg(3, 1000), 3, 7) // never syncs: replicas diverge
	defer cl.Free()
	fwd, rev := autoencoder.ZeroGrad(cl.Cfg.Model), autoencoder.ZeroGrad(cl.Cfg.Model)
	averageParams(fwd, []*node{cl.nodes[0], cl.nodes[1], cl.nodes[2]})
	averageParams(rev, []*node{cl.nodes[2], cl.nodes[0], cl.nodes[1]})
	if !paramsEqual(fwd, rev) {
		t.Fatal("averageParams depends on node iteration order")
	}
}

// TestSingleNodeNeverSyncs: a one-node cluster has nobody to talk to.
func TestSingleNodeNeverSyncs(t *testing.T) {
	cl := runFaulty(t, smallCfg(1, 1), 5, 3)
	defer cl.Free()
	if cl.Syncs() != 0 {
		t.Fatalf("single node synced %d times", cl.Syncs())
	}
	if cl.SimSeconds() <= 0 {
		t.Fatal("single node charged no time")
	}
}

// TestSyncEveryBeyondRun: a sync interval longer than the whole run means
// zero averaging rounds and replicas that have drifted apart.
func TestSyncEveryBeyondRun(t *testing.T) {
	cl := runFaulty(t, smallCfg(2, 100), 5, 3)
	defer cl.Free()
	if cl.Syncs() != 0 {
		t.Fatalf("synced %d times with SyncEvery beyond the run", cl.Syncs())
	}
	a := cl.nodes[0].m.Download()
	b := cl.nodes[1].m.Download()
	if paramsEqual(a, b) {
		t.Fatal("unsynced replicas training on different shards should drift")
	}
}

// TestFreeIdempotent: Free twice (and Free after a failed New) must not
// double-free device buffers.
func TestFreeIdempotent(t *testing.T) {
	cl, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, smallCfg(2, 1), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Free()
	cl.Free() // must be a no-op, not a panic
}

// TestFaultPlanValidation: malformed plans and configs are rejected by New
// with clear errors.
func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"rate out of range", func(c *Config) { c.Faults = &FaultPlan{Rate: 1.5} }, "fault rate"},
		{"negative rate", func(c *Config) { c.Faults = &FaultPlan{Rate: -0.1} }, "fault rate"},
		{"crash frac", func(c *Config) { c.Faults = &FaultPlan{Rate: 0.1, CrashFrac: 2} }, "permanent fraction"},
		{"permanent frac", func(c *Config) { c.Faults = &FaultPlan{Rate: 0.1, PermanentFrac: -1} }, "permanent fraction"},
		{"stall factor", func(c *Config) { c.Faults = &FaultPlan{Rate: 0.1, StallFactor: 0.5} }, "stall factor"},
		{"negative rejoin", func(c *Config) { c.Faults = &FaultPlan{Rate: 0.1, RejoinAfter: -1} }, "rejoin"},
		{"script node", func(c *Config) { c.Faults = &FaultPlan{Script: []NodeFault{{Node: 9}}} }, "targets node"},
		{"script step", func(c *Config) { c.Faults = &FaultPlan{Script: []NodeFault{{Node: 0, Step: -2}}} }, "negative step"},
		{"script kind", func(c *Config) { c.Faults = &FaultPlan{Script: []NodeFault{{Node: 0, Kind: FaultKind(7)}}} }, "fault kind"},
		{"policy", func(c *Config) { c.Policy = Policy(9) }, "policy"},
		{"timeout", func(c *Config) { c.DropTimeout = -1 }, "timeout"},
	}
	for _, cse := range cases {
		cfg := smallCfg(3, 1)
		cse.mut(&cfg)
		_, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, false, 1)
		if err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: err = %v, want contains %q", cse.name, err, cse.want)
		}
	}
}

// TestPolicyRoundTrip: flag spellings parse back to the policies.
func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{WaitAll, TimeoutDrop, BackupNode} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must fail")
	}
}
