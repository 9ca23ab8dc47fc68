package main

import (
	"phideep/internal/metrics"
)

// fromRegistry turns the traced phase's internal/metrics snapshot into
// per-layer shares and ratios. Busy seconds are summed over goroutines, so
// with two serving workers a share can exceed 1.
func fromRegistry(o *outcome, s metrics.Snapshot) {
	ops := float64(o.attempted)
	hist := func(name string) (sum float64, n int) {
		h := s.Histograms[name]
		return h.Sum, int(h.Count)
	}
	share := func(dst, name string) {
		sum, n := hist(name)
		o.set(dst, sum/o.wall, n)
	}
	share("kernels.gemm.share", "kernels.gemm.seconds")
	share("kernels.gemm32.share", "kernels.gemm32.seconds")
	share("parallel.region.share", "parallel.region.seconds")

	c := s.Counters
	asm := c["kernels.gemm.path.asm"] + c["kernels.gemm32.path.asm"]
	all := asm + c["kernels.gemm.path.go"] + c["kernels.gemm32.path.go"] +
		c["kernels.gemm.path.scalar"] + c["kernels.gemm32.path.scalar"]
	if all > 0 {
		o.set("kernels.gemm.asm_share", float64(asm)/float64(all), int(all))
	}
	if arena := c["kernels.pack.arena.reuse"] + c["kernels.pack.arena.grow"]; arena > 0 {
		o.set("kernels.pack.reuse_ratio", float64(c["kernels.pack.arena.reuse"])/float64(arena), int(arena))
	}
	im2col, n1 := hist("kernels.conv.im2col.seconds")
	pool, n2 := hist("kernels.conv.pool.seconds")
	o.set("kernels.conv.lowering_share", (im2col+pool)/o.wall, n1+n2)

	o.set("parallel.regions_per_op", float64(c["parallel.regions"])/ops, int(c["parallel.regions"]))
	if _, ok := o.layer["device.launches_per_op"]; !ok { // the trainer's Result gives it exactly
		o.set("device.launches_per_op", float64(c["device.kernel.launches"])/ops, int(c["device.kernel.launches"]))
	}
	o.set("device.wall.compute_share", s.Floats["device.wall.compute_seconds"]/o.wall, int(c["device.kernel.launches"]))
	o.set("device.wall.transfer_share", s.Floats["device.wall.transfer_seconds"]/o.wall, int(c["device.transfers"]))
}

// derive computes the metrics that combine the timed phase with the
// probes: what is left of a latency or a per-row cost once the measured
// forward pass and staging are taken out.
func derive(workload string, o *outcome) {
	switch workload {
	case wlServeOpen:
		// Wait = request p50 - one forward pass - staging a mean-sized
		// batch in and its replies out (probed per MiB at batch size).
		rows := o.layer["serve.batch.mean_size"].v
		inMiB := rows * openVisible * 8 / (1 << 20)
		outMiB := rows * openHidden * 8 / (1 << 20)
		staging := (inMiB*o.layer["device.copyin.batch.us_per_mb"].v + outMiB*o.layer["device.copyout.batch.us_per_mb"].v) / 1e3
		o.set("serve.wait_ms.p50", o.unitP50-o.layer["models.forward_ms_per_batch.f64"].v-staging, o.unitN)
	case wlServeBulk:
		perRow := 1e6 / o.rowsPerS
		fwd := 1e3 * o.layer["models.forward_ms_per_batch.f32"].v / bulkMaxBatch
		o.set("serve.bulk.overhead_us_per_row", perRow-fwd, o.attempted)
	}
}
