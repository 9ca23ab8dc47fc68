package cluster

import (
	"bytes"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/tensor"
)

// nodeStatus is one member's liveness.
type nodeStatus int

const (
	// statusLive: training (or, with resync pending, waiting at the next
	// barrier for fresh parameters).
	statusLive nodeStatus = iota
	// statusCrashed: down, with a rejoin scheduled.
	statusCrashed
	// statusLeft: permanently lost; never rejoins.
	statusLeft
)

// node is one cluster member: a model replica on its own simulated device,
// its deterministic fault stream, and its liveness bookkeeping.
type node struct {
	id     int
	m      *autoencoder.Model
	stream *device.FaultStream
	// feedc is the node's consumer of the shared feed (nil without one);
	// stage is its host staging matrix for leased chunks (numeric only).
	feedc *feed.Consumer
	stage *tensor.Matrix
	// shard is the device buffer every step's shard is copied into; host
	// is the host copy the barrier downloads into (numeric multi-node
	// clusters only). Both are allocated once, at New.
	shard *device.Buffer
	host  *autoencoder.Params

	status nodeStatus
	// inRing marks the node a member of the all-reduce ring. A crashed
	// node stays in the ring — silently slowing the next barrier — until
	// the failure detector excises it.
	inRing bool
	// resync marks a rejoined node waiting at the next barrier for fresh
	// parameters before it re-enters training.
	resync bool

	downSince   float64 // simulated time of the crash
	rejoinAt    int     // global step at which a crashed node rejoins
	stallLeft   int     // remaining straggler steps
	stallFactor float64
	lastBeat    float64 // heartbeat: simulated end of the last completed step
	stepEnd     float64 // this round's step end (scratch; live nodes only)
	rawDur      float64 // un-stalled duration of the last step

	// This step's scratch, set by Step's serial prologue (earliest issue
	// time, start, lease) and by the node's goroutine (loss).
	earliest, start float64
	lease           feed.Lease
	leased          bool
	loss            float64

	r NodeReport // per-node accounting
}

// dev returns the node's simulated device.
func (n *node) dev() *device.Device { return n.m.Ctx.Dev }

// partition splits the membership for a sync round: participants trained
// this round and contribute gradients; receivers are rejoined nodes waiting
// for a parameter resync.
func (c *Cluster) partition() (participants, receivers []*node) {
	for _, n := range c.nodes {
		if n.status != statusLive {
			continue
		}
		if n.resync {
			receivers = append(receivers, n)
		} else {
			participants = append(participants, n)
		}
	}
	return participants, receivers
}

// detectFailures runs the heartbeat failure detector at a sync barrier.
// A ring member that has been silent (no heartbeat) for timeout simulated
// seconds is declared dead and excised from the ring; the survivors cannot
// complete the round before the silence has lasted that long, so the
// detection wait is returned as a lower bound on the barrier time.
func (c *Cluster) detectFailures(timeout float64) (wait float64) {
	for _, n := range c.nodes {
		if !n.inRing || n.status == statusLive {
			continue
		}
		if at := n.downSince + timeout; at > wait {
			wait = at
		}
		n.inRing = false
		if n.status == statusLeft && n.feedc != nil {
			// A permanently lost node's frozen cursor pins the feed's low
			// watermark, accumulating backpressure stalls until the
			// detector excises it; closing its consumer releases the feed.
			n.feedc.Close()
		}
		n.r.Detections++
		c.rep.Detections++
		if metricsOn() {
			mDetections.Inc()
		}
	}
	return wait
}

// rejoin brings a crashed node back: its clock catches up to the cluster,
// it restores the lead replica's last PHCK checkpoint (when one exists —
// a crash before the first sync relies entirely on the barrier resync),
// and it waits for fresh parameters at the next barrier before training.
func (c *Cluster) rejoin(n *node) {
	n.status = statusLive
	n.inRing = true
	n.resync = true
	n.stallLeft = 0
	n.r.Rejoins++
	c.rep.Rejoins++
	if metricsOn() {
		mRejoins.Inc()
	}
	if down := c.syncedAt - n.dev().Now(); down > 0 {
		// The machine was dark from the crash to now; the gap is charged
		// to its compute engine as injected idle time.
		n.dev().StallCompute(down)
		n.r.DownSeconds += down
	}
	if c.ckptBlob == nil {
		return
	}
	ck, err := core.DecodeCheckpoint(c.ckptBlob)
	if err != nil {
		// The handoff blob is produced in-process, so this cannot happen
		// short of memory corruption; the barrier resync repairs the
		// replica regardless, so do not kill the run over it.
		return
	}
	if err := n.m.RestoreState(bytes.NewReader(ck.Model)); err != nil {
		return
	}
	n.r.Restores++
}

// liveCount returns the number of live members (resync-pending included).
func (c *Cluster) liveCount() int {
	live := 0
	for _, n := range c.nodes {
		if n.status == statusLive {
			live++
		}
	}
	return live
}
