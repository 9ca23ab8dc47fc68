package kernels

import (
	"fmt"
	"testing"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Kernel-path property suite: every micro-kernel path this build and CPU
// can run (go, avx2, avx512) is driven in one binary by switching
// activePath, over hostile shapes — zero and unit dimensions, primes,
// every leftover-panel count of the wide tiles, and shapes crossing the
// kcBlock/ncBlock panel edges — in all four trans layouts, at both blocked
// levels and pool sizes 1, 2 and 5. Each path must sit within the
// equivalence suites' tolerance of the Naive oracle, and avx512 must equal
// avx2 bit for bit. A pack-once operand (GemmPacked) must
// give exactly the per-call answer on every path, level and pool size.

var pathNames = [...]string{pathGo: "go", pathAVX2: "avx2", pathAVX512: "avx512"}

// availablePaths lists the paths this build and CPU can run, narrowest
// first. Detection orders them: avx512 is only detected with avx2 present.
func availablePaths(t *testing.T) []kernelPath {
	paths := []kernelPath{pathGo}
	for p := pathAVX2; p <= detectKernelPath(); p++ {
		paths = append(paths, p)
	}
	if paths[len(paths)-1] != pathAVX512 {
		t.Logf("avx512 half skipped: widest path in this build/CPU is %s", pathNames[paths[len(paths)-1]])
	}
	return paths
}

// withPath runs f with the micro-kernel dispatch pinned to p.
func withPath(p kernelPath, f func()) {
	saved := activePath
	activePath = p
	defer func() { activePath = saved }()
	f()
}

// pathShapes are m×k×n triples. The comments give the f64 (nr=8) and f32
// (nr32=16) micro-panel counts per jc block, modulo the wide tiles' 3 and 2.
var pathShapes = [][3]int{
	{0, 5, 7}, {5, 0, 7}, {5, 7, 0}, // empty products; k=0 only scales C
	{1, 1, 1},       // panels 1: %3=1, %2=1
	{3, 7, 13},      // panels 2 | 1: %3=2, %2=1
	{7, 13, 23},     // panels 3 | 2: %3=0, %2=0
	{13, 29, 47},    // panels 6 | 3: %3=0, %2=1
	{11, 31, 97},    // panels 13 | 7: %3=1, %2=1
	{5, 263, 41},    // k crosses kcBlock; panels 6 | 3
	{17, 257, 523},  // k crosses kcBlock, n crosses ncBlock: blocks of 64+2 | 32+1 panels
	{29, 3, 61},     // panels 8 | 4: %3=2, %2=0
	{2, 521, 37},    // k crosses kcBlock twice; panels 5 | 3
	{31, 2, 131},    // panels 17 | 9: %3=2, %2=1
	{37, 59, 1031},  // n crosses ncBlock twice
	{3, 1, 512 + 8}, // ncBlock then exactly one f64 panel
}

var transCombos = [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}

func TestGemmKernelPathsProperty(t *testing.T) { testKernelPathsProperty[float64](t, 61, Levels) }

// TestGemm32KernelPathsProperty is TestGemmKernelPathsProperty for Gemm32,
// held to the f64 oracle within gemm32Tol, at the blocked levels (the
// scalar f32 levels are covered by the equivalence suite).
func TestGemm32KernelPathsProperty(t *testing.T) {
	testKernelPathsProperty[float32](t, 67, []Level{Blocked, ParallelBlocked})
}

// compareToOracleAt checks got against the f64 oracle want: within the
// relative 1e-12 of compareToOracle at f64, within gemm32Tol(k) at f32.
func compareToOracleAt[T tensor.Float](t *testing.T, ctx string, got *tensor.Dense[T], want *tensor.Matrix, k int) {
	t.Helper()
	if got64, ok := any(got).(*tensor.Matrix); ok {
		compareToOracle(t, ctx, got64, want)
		return
	}
	compareToOracle32(t, ctx, any(got).(*tensor.Matrix32), want, gemm32Tol(k))
}

func testKernelPathsProperty[T tensor.Float](t *testing.T, seed uint64, levels []Level) {
	paths := availablePaths(t)
	coeffs := []T{1.5, -0.5, 1, 0}
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		r := rng.New(seed)
		for idx, s := range pathShapes {
			m, k, n := s[0], s[1], s[2]
			alpha, beta := coeffs[idx%3], coeffs[(idx+1)%4]
			for _, tr := range transCombos {
				transA, transB := tr[0], tr[1]
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				pad := idx % 3
				a, b := randStrided[T](r, ar, ac, pad), randStrided[T](r, br, bc, pad+1)
				c0 := randStrided[T](r, m, n, pad)
				// The oracle is the f64 Naive kernel on exactly widened
				// operands (a plain copy at f64).
				want := c0.To64()
				Gemm(nil, Naive, transA, transB, float64(alpha), a.To64(), b.To64(), float64(beta), want)
				pb := PackB(b, transB)
				// The scalar levels run no micro-kernel, but the packed call
				// must still read the handle's source there.
				for _, lvl := range levels {
					got := make([]*tensor.Dense[T], len(paths))
					for i, p := range paths {
						got[i] = cloneStrided(c0)
						packed := cloneStrided(c0)
						withPath(p, func() {
							gemm(pool, lvl, transA, transB, alpha, a, b, nil, beta, got[i])
							GemmPacked(pool, lvl, transA, alpha, a, pb, beta, packed)
						})
						ctx := fmt.Sprintf("workers=%d %s", workers, caseName(lvl.String()+"/"+pathNames[p], m, k, n, transA, transB, float64(alpha), float64(beta)))
						compareToOracleAt(t, ctx, got[i], want, k)
						checkPadding(t, ctx, got[i])
						if !bitsEqual(packed.Data, got[i].Data) {
							t.Fatalf("%s: the packed GEMM differs from the per-call one", ctx)
						}
					}
					if len(paths) == 3 && !bitsEqual(got[2].Data, got[1].Data) {
						t.Fatalf("workers=%d %s: avx512 differs from avx2", workers,
							caseName(lvl.String(), m, k, n, transA, transB, float64(alpha), float64(beta)))
					}
				}
			}
		}
		pool.Close()
	}
}

// TestGemmPathCounters: a call that runs no micro-kernel (an empty
// product, k = 0, alpha = 0, or a scalar level) counts as path.scalar, and
// a blocked call counts once under the path that served it, with avx512
// also counting as asm. A narrow call (n ≤ narrowN: 16 columns at f64, 32
// at f32) runs only the AVX2 tiles, so on the avx512 path it counts as asm
// but not avx512, at either precision. A pack-once call counts like the
// per-call one and once more under prepacked.
func TestGemmPathCounters(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	reg := metrics.Default()
	names := func(prefix string) []string {
		return []string{prefix + ".path.scalar", prefix + ".path.go", prefix + ".path.asm", prefix + ".path.avx512"}
	}
	read := func(prefix string) [4]int64 {
		var v [4]int64
		for i, name := range names(prefix) {
			v[i] = reg.Counter(name).Value()
		}
		return v
	}
	r := rng.New(71)
	wideN := 3 * tileNR[float32]() // wide at both precisions
	a, b, c := randMatrix(r, 5, 7), randMatrix(r, 7, wideN), tensor.NewMatrix(5, wideN)
	a32, b32, c32 := a.To32(), b.To32(), c.To32()
	narrowB, narrowC := randMatrix(r, 7, 9), tensor.NewMatrix(5, 9)
	narrowB32, narrowC32 := narrowB.To32(), narrowC.To32()
	empty, emptyB := tensor.NewMatrix(5, 0), tensor.NewMatrix(0, wideN)
	empty32, emptyB32 := empty.To32(), emptyB.To32()
	cases := []struct {
		name   string
		lvl    Level
		alpha  float64
		k0     bool
		narrow bool
	}{
		{"blocked", Blocked, 1, false, false},
		{"blocked narrow", Blocked, 1, false, true},
		{"alpha=0", Blocked, 0, false, false},
		{"k=0", Blocked, 1, true, false},
		{"scalar level", Naive, 1, false, false},
	}
	prepacked, prepacked32 := reg.Counter("kernels.gemm.prepacked"), reg.Counter("kernels.gemm32.prepacked")
	for _, p := range availablePaths(t) {
		for _, cse := range cases {
			want := [4]int64{2, 0, 0, 0} // scalar, go, asm, avx512: one Gemm and one GemmPacked
			if cse.lvl.IsBlocked() && cse.alpha != 0 && !cse.k0 {
				want = [4]int64{0, 0, 2, 0}
				switch p {
				case pathGo:
					want = [4]int64{0, 2, 0, 0}
				case pathAVX512:
					want[3] = 2
				}
			}
			if cse.narrow {
				want[3] = 0
			}
			x, y, x32, y32 := a, b, a32, b32
			z, z32 := c, c32
			switch {
			case cse.k0:
				x, y, x32, y32 = empty, emptyB, empty32, emptyB32
			case cse.narrow:
				y, y32, z, z32 = narrowB, narrowB32, narrowC, narrowC32
			}
			pb, pb32 := PackB(y, false), PackB(y32, false)
			before, before32 := read("kernels.gemm"), read("kernels.gemm32")
			pre, pre32 := prepacked.Value(), prepacked32.Value()
			withPath(p, func() {
				Gemm(nil, cse.lvl, false, false, cse.alpha, x, y, 1, z)
				GemmPacked(nil, cse.lvl, false, cse.alpha, x, pb, 1, z)
				Gemm32(nil, cse.lvl, false, false, float32(cse.alpha), x32, y32, 1, z32)
				GemmPacked(nil, cse.lvl, false, float32(cse.alpha), x32, pb32, 1, z32)
			})
			after, after32 := read("kernels.gemm"), read("kernels.gemm32")
			for i := range want {
				if d := after[i] - before[i]; d != want[i] {
					t.Errorf("%s %s: %s moved by %d, want %d", pathNames[p], cse.name, names("kernels.gemm")[i], d, want[i])
				}
				if d := after32[i] - before32[i]; d != want[i] {
					t.Errorf("%s %s: %s moved by %d, want %d", pathNames[p], cse.name, names("kernels.gemm32")[i], d, want[i])
				}
			}
			if d, d32 := prepacked.Value()-pre, prepacked32.Value()-pre32; d != 1 || d32 != 1 {
				t.Errorf("%s %s: prepacked counters moved by %d (f64) and %d (f32), want 1 each", pathNames[p], cse.name, d, d32)
			}
		}
	}
}
