package kernels

import "math"

// Constants of Go's amd64 math.Exp (Shibata's SLEEF reduction): ln 2 split
// into an upper half with trailing zero bits and a lower correction, and the
// Taylor coefficients 1/n! of the reduced exponential.
const (
	expLog2E    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	expC3 = 1.6666666666666666667e-1
	expC4 = 4.1666666666666666667e-2
	expC5 = 8.3333333333333333333e-3
	expC6 = 1.3888888888888888889e-3
	expC7 = 1.9841269841269841270e-4
	expC8 = 2.4801587301587301587e-5
)

// Exp returns e^x. It is the operation sequence of the FMA branch of Go's
// amd64 math.Exp, written with math.FMA, so it returns the same bits on
// every host and at every GODEBUG setting: a host without FMA, a non-amd64
// host and GODEBUG=cpu.fma=off all get what an FMA-capable amd64 host's
// math.Exp returns. Every sigmoid and softmax in the repository calls it,
// and the AVX2 sigmoid kernel runs the same sequence on four lanes.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	// k = round-to-nearest-even(x·log2 e), as CVTSD2SL converts it: a value
	// outside int32 gives the integer indefinite −2³¹.
	k := int32(math.MinInt32)
	if r := math.RoundToEven(x * expLog2E); r >= math.MinInt32 && r <= math.MaxInt32 {
		k = int32(r)
	}
	kf := float64(k)
	x = math.FMA(-kf, expLn2U, x)
	x = math.FMA(-kf, expLn2L, x)
	x *= 0.0625
	p := math.FMA(x, expC8, expC7)
	p = math.FMA(x, p, expC6)
	p = math.FMA(x, p, expC5)
	p = math.FMA(x, p, expC4)
	p = math.FMA(x, p, expC3)
	p = math.FMA(x, p, 0.5)
	p = math.FMA(x, p, 1)
	// x·p ≈ e^x − 1 for the reduced x; each x·(x+2) squares 1+x, and four
	// squarings undo the division by 16.
	x *= p
	x *= x + 2
	x *= x + 2
	x *= x + 2
	x = math.FMA(x+2, x, 1)
	// Scale by 2^k. A biased exponent at or below zero takes two steps,
	// 2^(k+1022) and then 2^-1022, so the result rounds once into the
	// subnormal range; below −52 it underflows to zero.
	e := k + 0x3ff
	switch {
	case e <= 0:
		if e < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(e+0x3fe) << 52)
		e = 1
	case e >= 0x7ff:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(e)<<52)
}
