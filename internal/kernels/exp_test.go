package kernels

import (
	"math"
	"runtime"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// expProbe is an argument where the two branches of Go's amd64 math.Exp
// differ in the last bit: the FMA branch, which Exp replicates, returns
// expProbeFMA, the plain SSE2 branch expProbeSSE2.
const (
	expProbe     = -8.570554903294997
	expProbeFMA  = 0x3f28da2b3910de7f
	expProbeSSE2 = 0x3f28da2b3910de80
)

// TestExpMatchesMathExp is the exactness oracle of Exp: bitwise equal to
// math.Exp on every special value, both edges of the denormal band, the
// overflow threshold, the half-integer ties of x·log2 e and 12 M swept and
// random arguments. It needs
// math.Exp on its FMA branch, so it skips on other architectures and when
// the CPU (or GODEBUG=cpu.fma=off) sends math.Exp down the SSE2 branch.
// A Go release that changes math.Exp fails here by name.
func TestExpMatchesMathExp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Exp on %s is not the amd64 FMA sequence Exp replicates", runtime.GOARCH)
	}
	if got := math.Float64bits(math.Exp(expProbe)); got != expProbeFMA {
		if got == expProbeSSE2 {
			t.Skip("math.Exp runs its non-FMA branch on this CPU or GODEBUG setting")
		}
		t.Fatalf("math.Exp(%v) = %#x, neither the FMA (%#x) nor the SSE2 (%#x) branch", expProbe, got, uint64(expProbeFMA), uint64(expProbeSSE2))
	}
	bad := 0
	check := func(x float64) {
		got, want := Exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			if bad++; bad <= 10 {
				t.Errorf("Exp(%v [%#x]) = %v [%#x], math.Exp = %v [%#x]",
					x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1p-1022, -0x1p-1022,
		708, -708, 709.78, -709.78, expOverflow, math.Nextafter(expOverflow, 1), math.Nextafter(expOverflow, 0),
		-745.13, -745.1332191019411, -745.1332191019412, -708.4, -708.3964185322641, -746,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		expProbe, 1, -1, 0.5, math.Ln2, -math.Ln2, 1e-300, -1e-300, 1e10, -1e10,
	}
	for _, x := range special {
		check(x)
	}
	ties := expTies(-1100.5, 1100)
	if len(ties) < 1000 {
		t.Fatalf("found only %d half-integer ties", len(ties))
	}
	for _, x := range ties {
		check(x)
	}
	const sweep = 1 << 21
	for i := 0; i <= sweep; i++ {
		f := float64(i) / sweep
		check(-710 + 1420*f)            // the whole finite range and past both ends
		check(-745.2 + (745.2-708.3)*f) // the denormal band
		check(-40 + 80*f)               // where sigmoids live
	}
	r := rng.New(35)
	for range 3 << 20 {
		check(math.Float64frombits(r.Uint64())) // any bit pattern
		check(-750 + 1460*r.Float64())
	}
	if bad > 0 {
		t.Fatalf("%d arguments differ", bad)
	}
}

// expTies returns the arguments x near h/log2 e, for every half-integer h
// in [lo, hi), where x·log2 e is exactly h: there k must round to even,
// as CVTSD2SL and VCVTPD2DQ do, not away from zero.
func expTies(lo, hi float64) []float64 {
	var ties []float64
	for h := lo; h < hi; h++ {
		x := h / expLog2E
		for range 4 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for range 8 {
			if x*expLog2E == h {
				ties = append(ties, x)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return ties
}

var expSink float64

// BenchmarkExp is the cost of the scalar replica against math.Exp, per
// call, in a throughput loop. Only the scalar levels and pure-Go builds
// run Exp per element.
func BenchmarkExp(b *testing.B) {
	xs := make([]float64, 2048)
	r := rng.New(1)
	for i := range xs {
		xs[i] = -20 + 40*r.Float64()
	}
	for _, bc := range []struct {
		name string
		exp  func(float64) float64
	}{{"kernels", Exp}, {"math", math.Exp}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expSink = bc.exp(xs[i&(len(xs)-1)])
			}
		})
	}
}

// BenchmarkSigmoid is the per-element cost of Sigmoid at both precisions on a
// 32×512 matrix at the scalar Naive level and the vectorized Blocked level.
func BenchmarkSigmoid(b *testing.B) {
	r := rng.New(2)
	src := tensor.NewMatrix(32, 512).Randomize(r, -8, 8)
	dst := tensor.NewMatrix(32, 512)
	src32, dst32 := src.To32(), tensor.NewMatrix32(32, 512)
	pool := parallel.NewPool(1)
	defer pool.Close()
	elems := float64(src.Rows * src.Cols)
	for _, lvl := range []Level{Naive, Blocked} {
		b.Run("f64/"+lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Sigmoid(pool, lvl, dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
		b.Run("f32/"+lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Sigmoid(pool, lvl, dst32, src32)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
	}
}
