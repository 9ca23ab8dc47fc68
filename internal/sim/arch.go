// Package sim models the execution time of phideep kernels on the machines
// of the paper: the Intel Xeon Phi 5110P coprocessor, a single Intel Xeon
// E5620 core, the full E5620 host chip, and the paper's Matlab baseline.
//
// The model is a roofline with three extra terms the paper's findings hinge
// on: (1) a fork/join synchronization cost per parallel region, so that
// fine-grained loops lose to synchronization (§IV.B.2 and the "Improved
// OpenMP+MKL" Table I row); (2) a GEMM efficiency that ramps with problem
// size, so small networks do not benefit from the coprocessor (Fig. 7's
// "difference is small when the network size is small"); and (3) a PCIe
// transfer cost with latency + bandwidth, so the loading-thread overlap of
// Fig. 5 matters (§IV.A's "13 s transfer vs 68 s compute").
//
// Constants are calibrated so the Table I ladder reproduces the paper's
// 16042 s → 892 s → 97 s → 53 s (60 cores) and ≈197× (30 cores) shape; see
// DESIGN.md §6 and the calibration tests in this package.
package sim

// Arch describes one execution platform. All rates are double precision.
type Arch struct {
	Name string

	// Cores is the number of physical cores; ThreadsPerCore the hardware
	// threads each can run (4 on the Phi, 2 with Hyper-Threading on the
	// Xeon).
	Cores          int
	ThreadsPerCore int

	// ClockHz is the core frequency.
	ClockHz float64

	// VectorDoubles is the SIMD width in float64 lanes (8 for the Phi's
	// 512-bit VPU, 2 for the Xeon's 128-bit SSE).
	VectorDoubles int
	// FMAFactor is 2 when a fused (or dual-ported) multiply-add retires
	// both flops per lane per cycle, else 1.
	FMAFactor int

	// ScalarFPC is the scalar flops/cycle/core achieved with a fully fed
	// pipeline.
	ScalarFPC float64
	// MinThreadsFullIssue is the hardware threads per core needed to keep
	// the pipeline full (2 on the in-order Phi; 1 on the out-of-order
	// Xeon). Fewer threads scale issue proportionally — this is why the
	// paper's Table I baseline, a single Phi thread, is so slow.
	MinThreadsFullIssue int

	// MemBW is aggregate memory bandwidth in bytes/s; PerCoreMemBW caps
	// what one core can draw.
	MemBW        float64
	PerCoreMemBW float64

	// GemmEffVector is the asymptotic fraction of vector peak the
	// blocked+vectorized GEMM ("MKL") reaches; GemmWorkHalf is the flop
	// count at which half of that efficiency is reached (the ramp that
	// penalizes small networks).
	GemmEffVector float64
	GemmWorkHalf  float64

	// SyncBase/SyncPerThread/SyncQuad give the fork/join cost of one
	// parallel region in seconds: SyncBase + SyncPerThread×T + SyncQuad×T².
	// On the Phi the constant term dominates: it models the offload
	// runtime's parallel-region launch/teardown, which is what the paper's
	// loop-combining step ("Improved OpenMP+MKL") amortizes. Calibrated
	// against Table I's MKL→Improved gap at both core counts.
	SyncBase      float64
	SyncPerThread float64
	SyncQuad      float64

	// PCIeBW/PCIeLatency describe host↔device transfers. Zero bandwidth
	// means the arch is the host itself (no offload).
	PCIeBW      float64
	PCIeLatency float64

	// PerOpOverhead is charged once per kernel call regardless of size —
	// the interpreter/dispatch overhead of the Matlab baseline. Zero for
	// compiled platforms.
	PerOpOverhead float64

	// GlobalMemBytes is the device memory capacity (8 GB on the 5110P),
	// enforced by the device allocator.
	GlobalMemBytes int64
}

// VectorFPC returns the peak vector flops/cycle/core.
func (a *Arch) VectorFPC() float64 {
	return float64(a.VectorDoubles * a.FMAFactor)
}

// ScalarPeak returns the aggregate scalar peak in flops/s for the given
// core and threads-per-core usage.
func (a *Arch) ScalarPeak(cores, threadsPerCore int) float64 {
	return float64(cores) * a.ClockHz * a.ScalarFPC * a.issueUtil(threadsPerCore)
}

// VectorPeak returns the aggregate vector peak in flops/s.
func (a *Arch) VectorPeak(cores, threadsPerCore int) float64 {
	return float64(cores) * a.ClockHz * a.VectorFPC() * a.issueUtil(threadsPerCore)
}

func (a *Arch) issueUtil(threadsPerCore int) float64 {
	if threadsPerCore <= 0 {
		threadsPerCore = a.ThreadsPerCore
	}
	if threadsPerCore >= a.MinThreadsFullIssue {
		return 1
	}
	return float64(threadsPerCore) / float64(a.MinThreadsFullIssue)
}

// bandwidth returns the memory bandwidth available to the given core count.
func (a *Arch) bandwidth(cores int) float64 {
	bw := float64(cores) * a.PerCoreMemBW
	if bw > a.MemBW {
		bw = a.MemBW
	}
	return bw
}

// SyncCost returns the fork/join cost of one parallel region across the
// given number of software threads.
func (a *Arch) SyncCost(threads int) float64 {
	if threads <= 1 {
		return 0
	}
	t := float64(threads)
	return a.SyncBase + a.SyncPerThread*t + a.SyncQuad*t*t
}

// TransferTime returns the time to move n bytes across PCIe. It returns 0
// for archs without a PCIe link (host platforms).
func (a *Arch) TransferTime(bytes int64) float64 {
	if a.PCIeBW <= 0 {
		return 0
	}
	return a.PCIeLatency + float64(bytes)/a.PCIeBW
}

// XeonPhi5110P returns the paper's coprocessor: 60 cores at 1.053 GHz, four
// hardware threads per in-order core, a 512-bit VPU (8 doubles, FMA), 8 GB
// of GDDR5 at 320 GB/s. PCIeBW is the *effective* host→device goodput of
// the loading pipeline (staging + offload transfer), not the raw link rate:
// the paper measures 13 s for a 10,000×4096 chunk stream against 68 s of
// training, and raw-link numbers would make transfers invisible.
func XeonPhi5110P() *Arch {
	return &Arch{
		Name:                "Xeon Phi 5110P",
		Cores:               60,
		ThreadsPerCore:      4,
		ClockHz:             1.053e9,
		VectorDoubles:       8,
		FMAFactor:           2,
		ScalarFPC:           2.0,
		MinThreadsFullIssue: 2,
		MemBW:               320e9,
		PerCoreMemBW:        16e9,
		GemmEffVector:       0.78,
		GemmWorkHalf:        1.5e9,
		SyncBase:            4.5e-3,
		SyncPerThread:       1e-6,
		PCIeBW:              1.3e9,
		PCIeLatency:         50e-6,
		GlobalMemBytes:      8 << 30,
	}
}

// XeonE5620Core returns a single core of the host's Xeon E5620 (Westmere,
// 2.4 GHz, 128-bit SSE so 2 doubles/op with separate add and multiply
// ports). This is the "single CPU core" of Figs. 7–9.
func XeonE5620Core() *Arch {
	return &Arch{
		Name:                "Xeon E5620 (1 core)",
		Cores:               1,
		ThreadsPerCore:      1,
		ClockHz:             2.4e9,
		VectorDoubles:       2,
		FMAFactor:           2,
		ScalarFPC:           1.4,
		MinThreadsFullIssue: 1,
		MemBW:               25.6e9,
		PerCoreMemBW:        8e9,
		GemmEffVector:       0.72,
		GemmWorkHalf:        2e7,
		SyncBase:            2e-6,
		SyncPerThread:       1e-6,
		GlobalMemBytes:      48 << 30,
	}
}

// XeonE5620Full returns the whole four-core host chip with Hyper-Threading;
// the comparator behind the abstract's "7 to 10 times faster than the Intel
// Xeon CPU".
func XeonE5620Full() *Arch {
	a := XeonE5620Core()
	a.Name = "Xeon E5620 (4 cores)"
	a.Cores = 4
	a.ThreadsPerCore = 2
	a.MemBW = 25.6e9
	a.SyncBase = 4e-6
	return a
}

// XeonE5620Dual returns a dual-socket E5620 host (8 cores, 16 threads) —
// the typical server configuration for this CPU, and the comparator under
// which the abstract's "7 to 10 times faster than the Intel Xeon CPU"
// holds: the Phi's effective GEMM rate over this host's lands in that band.
func XeonE5620Dual() *Arch {
	a := XeonE5620Full()
	a.Name = "2x Xeon E5620 (8 cores)"
	a.Cores = 8
	a.MemBW = 51.2e9
	a.SyncBase = 8e-6
	return a
}

// TeslaK20X returns a 2013-era GPU comparator (the platform the paper
// positions the Phi against: "GPU has also shown great potential in
// training modest-sized neural network", §III). 14 SMX units at 732 MHz
// with 64 DP lanes and FMA give the card's 1.31 TFLOP/s DP peak; cuBLAS
// DGEMM reaches ≈85% of it. Kernel launches cost ~15 µs — two orders of
// magnitude below the Phi's offload parallel-region overhead, which is the
// GPU's real advantage on small batches.
func TeslaK20X() *Arch {
	return &Arch{
		Name:                "Tesla K20X (GPU model)",
		Cores:               14, // SMX units
		ThreadsPerCore:      1,
		ClockHz:             0.732e9,
		VectorDoubles:       64, // DP lanes per SMX
		FMAFactor:           2,
		ScalarFPC:           2,
		MinThreadsFullIssue: 1,
		MemBW:               250e9,
		PerCoreMemBW:        25e9,
		GemmEffVector:       0.85,
		GemmWorkHalf:        1.0e9,
		SyncBase:            15e-6,
		PCIeBW:              1.3e9,
		PCIeLatency:         50e-6,
		GlobalMemBytes:      6 << 30,
	}
}

// MatlabR2012a returns the Fig. 10 baseline: Matlab's optimized BLAS on the
// full host chip, with a fixed per-operation interpreter/dispatch overhead.
// Matlab's matrix ops are near vendor-BLAS speed, so only the overhead and
// a slightly lower GEMM efficiency separate it from XeonE5620Full.
func MatlabR2012a() *Arch {
	a := XeonE5620Full()
	a.Name = "Matlab R2012a (host CPU)"
	a.GemmEffVector = 0.62
	a.PerOpOverhead = 150e-6
	return a
}
