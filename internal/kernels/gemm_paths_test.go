package kernels

import (
	"fmt"
	"math"
	"sync"
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
// avx2 bit for bit. A pack-once operand (GemmPacked, Gemm32Packed) must
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

func bitsEqual64(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestGemmKernelPathsProperty(t *testing.T) {
	paths := availablePaths(t)
	coeffs := []float64{1.5, -0.5, 1, 0}
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		r := rng.New(61)
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
				a, b := stridedRand(r, ar, ac, pad), stridedRand(r, br, bc, pad+1)
				c0 := stridedRand(r, m, n, pad)
				want := c0.Clone()
				Gemm(nil, Naive, transA, transB, alpha, a, b, beta, want)
				pb := PackB(b, transB)
				// The scalar levels run no micro-kernel, but GemmPacked must
				// still read the handle's source there.
				for _, lvl := range Levels {
					got := make([]*tensor.Matrix, len(paths))
					for i, p := range paths {
						got[i] = c0.Clone()
						packed := c0.Clone()
						withPath(p, func() {
							Gemm(pool, lvl, transA, transB, alpha, a, b, beta, got[i])
							GemmPacked(pool, lvl, transA, alpha, a, pb, beta, packed)
						})
						ctx := fmt.Sprintf("workers=%d %s", workers, caseName(lvl.String()+"/"+pathNames[p], m, k, n, transA, transB, alpha, beta))
						compareToOracle(t, ctx, got[i], want)
						checkPadding(t, ctx, got[i])
						if !bitsEqual64(packed.Data, got[i].Data) {
							t.Fatalf("%s: GemmPacked differs from Gemm", ctx)
						}
					}
					if len(paths) == 3 && !bitsEqual64(got[2].Data, got[1].Data) {
						t.Fatalf("workers=%d %s: avx512 differs from avx2", workers,
							caseName(lvl.String(), m, k, n, transA, transB, alpha, beta))
					}
				}
			}
		}
		pool.Close()
	}
}

func TestGemm32KernelPathsProperty(t *testing.T) {
	paths := availablePaths(t)
	coeffs := []float32{1.5, -0.5, 1, 0}
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		r := rng.New(67)
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
				a, b := stridedRand32(r, ar, ac, pad), stridedRand32(r, br, bc, pad+1)
				c0 := stridedRand32(r, m, n, pad)
				want := to64(c0)
				Gemm(nil, Naive, transA, transB, float64(alpha), to64(a), to64(b), float64(beta), want)
				pb := PackB32(b, transB)
				for _, lvl := range []Level{Blocked, ParallelBlocked} {
					got := make([]*tensor.Matrix32, len(paths))
					for i, p := range paths {
						got[i] = cloneStrided32(c0)
						packed := cloneStrided32(c0)
						withPath(p, func() {
							Gemm32(pool, lvl, transA, transB, alpha, a, b, beta, got[i])
							Gemm32Packed(pool, lvl, transA, alpha, a, pb, beta, packed)
						})
						ctx := fmt.Sprintf("workers=%d %s", workers, caseName(lvl.String()+"/"+pathNames[p], m, k, n, transA, transB, float64(alpha), float64(beta)))
						compareToOracle32(t, ctx, got[i], want, gemm32Tol(k))
						checkPadding32(t, ctx, got[i])
						if !bitsEqual32(packed.Data, got[i].Data) {
							t.Fatalf("%s: Gemm32Packed differs from Gemm32", ctx)
						}
					}
					if len(paths) == 3 && !bitsEqual32(got[2].Data, got[1].Data) {
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
// also counting as asm. A narrow f64 call (n ≤ narrowN) runs only 4×8
// tiles, so on the avx512 path it counts as asm but not avx512. A
// pack-once call counts like the per-call one and once more under
// prepacked.
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
	const wideN = 3 * nr
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
			want32 := want // f32 has no narrow path
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
			pb, pb32 := PackB(y, false), PackB32(y32, false)
			before, before32 := read("kernels.gemm"), read("kernels.gemm32")
			pre, pre32 := prepacked.Value(), prepacked32.Value()
			withPath(p, func() {
				Gemm(nil, cse.lvl, false, false, cse.alpha, x, y, 1, z)
				GemmPacked(nil, cse.lvl, false, cse.alpha, x, pb, 1, z)
				Gemm32(nil, cse.lvl, false, false, float32(cse.alpha), x32, y32, 1, z32)
				Gemm32Packed(nil, cse.lvl, false, float32(cse.alpha), x32, pb32, 1, z32)
			})
			after, after32 := read("kernels.gemm"), read("kernels.gemm32")
			for i := range want {
				if d := after[i] - before[i]; d != want[i] {
					t.Errorf("%s %s: %s moved by %d, want %d", pathNames[p], cse.name, names("kernels.gemm")[i], d, want[i])
				}
				if d := after32[i] - before32[i]; d != want32[i] {
					t.Errorf("%s %s: %s moved by %d, want %d", pathNames[p], cse.name, names("kernels.gemm32")[i], d, want32[i])
				}
			}
			if d, d32 := prepacked.Value()-pre, prepacked32.Value()-pre32; d != 1 || d32 != 1 {
				t.Errorf("%s %s: prepacked counters moved by %d (f64) and %d (f32), want 1 each", pathNames[p], cse.name, d, d32)
			}
		}
	}
}

// TestPackedBSharedAcrossGoroutines: one handle serves concurrent GEMMs
// (each with its own pool, A and C, as serving replicas have) and every one
// gets the sequential answer. Run under -race this is the read-only
// sharing claim.
func TestPackedBSharedAcrossGoroutines(t *testing.T) {
	r := rng.New(47)
	b := stridedRand(r, 300, 530, 1) // k crosses kcBlock, n crosses ncBlock
	pb := PackB(b, false)
	const callers = 6
	as := make([]*tensor.Matrix, callers)
	want := make([]*tensor.Matrix, callers)
	for g := range as {
		as[g] = stridedRand(r, 8+g, 300, 0)
		want[g] = tensor.NewMatrix(8+g, 530)
		Gemm(nil, Blocked, false, false, 1, as[g], b, 0, want[g])
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := parallel.NewPool(1 + g%3)
			defer pool.Close()
			for rep := 0; rep < 4; rep++ {
				c := tensor.NewMatrix(8+g, 530)
				GemmPacked(pool, ParallelBlocked, false, 1, as[g], pb, 0, c)
				if !bitsEqual64(c.Data, want[g].Data) {
					errs <- fmt.Errorf("caller %d rep %d: shared handle gave a different answer", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
