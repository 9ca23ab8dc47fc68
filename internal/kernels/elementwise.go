package kernels

import (
	"fmt"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// forRows runs body over row ranges of a rows×cols matrix at nsPerElem
// serial nanoseconds per element, parallel when the level, the pool and
// the work allow it. All elementwise kernels funnel through here so the
// vectorizable loops of the paper (Eqs. 14–18) share one scheduling point.
func forRows(pool *parallel.Pool, lvl Level, rows, cols int, nsPerElem float64, body func(lo, hi int)) {
	team(pool, lvl, cost(nsPerElem, rows, cols)).For(rows, parallel.Static, 0, body)
}

func checkSameShape[T tensor.Float](op string, a, b *tensor.Dense[T]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Sigmoid computes dst = 1/(1+exp(-src)) elementwise. dst and src may be
// the same matrix. This is the vectorized sampling map of Eqs. 14–15: the
// blocked levels run it four lanes at a time on the assembly paths
// (vectorSigmoid), bitwise equal to the scalar loop over Exp. When neither
// matrix has gaps between rows, each worker's rows are one span.
// In float32 each element is evaluated in float64 and rounded once on
// store.
func Sigmoid[T tensor.Float](pool *parallel.Pool, lvl Level, dst, src *tensor.Dense[T]) {
	checkSameShape("Sigmoid", dst, src)
	vec := vectorSigmoid(lvl)
	c := src.Cols
	dense := dst.Stride == c && src.Stride == c
	forRows(pool, lvl, src.Rows, c, nsSigmoid, func(lo, hi int) {
		if dense {
			sigmoidSpan(dst.Data[lo*c:hi*c], src.Data[lo*c:hi*c], vec)
			return
		}
		for i := lo; i < hi; i++ {
			sigmoidSpan(dst.RowView(i), src.RowView(i), vec)
		}
	})
}

// sigmoidSpan writes d[j] = sigmoid(s[j]), through the 4-lane kernel first
// when vec is set.
func sigmoidSpan[T tensor.Float](d, s []T, vec bool) {
	j := 0
	if vec {
		j = vectorSpan(d, s, prec[T]().sigmoid, sigmoidOf[T])
	}
	for ; j < len(s); j++ {
		d[j] = sigmoidOf(s[j])
	}
}

// sigmoid is the scalar logistic function every sigmoid kernel shares.
func sigmoid(v float64) float64 { return 1 / (1 + Exp(-v)) }

// sigmoidOf is sigmoid at T: evaluated in float64, rounded once on store.
// It is not inlined because, inlined at float32, the compiler widened each
// element into the register holding the previous element's result, and
// CVTSS2SD's merge into that register chained every Exp to the one before
// (2× slower). At float64 that costs one call per element, paid only by
// the scalar levels and the blocks the vector kernel rejects.
//
//go:noinline
func sigmoidOf[T tensor.Float](v T) T { return T(sigmoid(float64(v))) }

// vectorSigmoid reports whether Sigmoid runs its assembly kernel at lvl.
// Like the GEMM, only the blocked (MKL-grade) levels of Table I are
// vectorized; the scalar levels and pure-Go builds loop over Exp.
func vectorSigmoid(lvl Level) bool { return lvl.IsBlocked() && activePath != pathGo }

// vectorSpan runs the 4-lane kernel over d = f(s), and scalar through
// every block the kernel rejects, until fewer than four elements remain.
// It returns where the scalar tail starts.
func vectorSpan[T tensor.Float](d, s []T, kernel func(dst, src []T) int, scalar func(T) T) int {
	j := 0
	for {
		j += kernel(d[j:], s[j:])
		if len(s)-j < 4 {
			return j
		}
		for end := j + 4; j < end; j++ {
			d[j] = scalar(s[j])
		}
	}
}

// SigmoidPrimeFromY computes dst = y·(1−y) elementwise, the derivative of
// the sigmoid expressed through its output. dst and y may be the same.
func SigmoidPrimeFromY(pool *parallel.Pool, lvl Level, dst, y *tensor.Matrix) {
	checkSameShape("SigmoidPrimeFromY", dst, y)
	forRows(pool, lvl, y.Rows, y.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := y.RowView(i), dst.RowView(i)
			for j, v := range s {
				d[j] = v * (1 - v)
			}
		}
	})
}

// AddBiasRow adds the bias vector b to every row of m in place:
// m[i,:] += b. This realizes the "+ b" of y = s(Wx + b) in batched form.
func AddBiasRow[T tensor.Float](pool *parallel.Pool, lvl Level, m *tensor.Dense[T], b tensor.Vec[T]) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("kernels: AddBiasRow bias length %d, want %d", len(b), m.Cols))
	}
	forRows(pool, lvl, m.Rows, m.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] += b[j]
			}
		}
	})
}

// Axpy computes y += alpha*x elementwise over matrices (the vectorized
// parameter update of Eqs. 16–18).
func Axpy(pool *parallel.Pool, lvl Level, alpha float64, x, y *tensor.Matrix) {
	checkSameShape("Axpy", x, y)
	forRows(pool, lvl, x.Rows, x.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr, yr := x.RowView(i), y.RowView(i)
			for j, v := range xr {
				yr[j] += alpha * v
			}
		}
	})
}

// AxpyVec computes y += alpha*x over vectors.
func AxpyVec(alpha float64, x, y tensor.Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernels: AxpyVec length mismatch: %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of m by alpha.
func Scale(pool *parallel.Pool, lvl Level, alpha float64, m *tensor.Matrix) {
	forRows(pool, lvl, m.Rows, m.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] *= alpha
			}
		}
	})
}

// Sub computes dst = a − b elementwise; dst may alias a or b.
func Sub(pool *parallel.Pool, lvl Level, dst, a, b *tensor.Matrix) {
	checkSameShape("Sub", a, b)
	checkSameShape("Sub", dst, a)
	forRows(pool, lvl, a.Rows, a.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar, br, dr := a.RowView(i), b.RowView(i), dst.RowView(i)
			for j := range ar {
				dr[j] = ar[j] - br[j]
			}
		}
	})
}

// MulElem computes dst = a ⊙ b (Hadamard product); dst may alias a or b.
// Used to fold the activation derivative into the backpropagated delta.
func MulElem(pool *parallel.Pool, lvl Level, dst, a, b *tensor.Matrix) {
	checkSameShape("MulElem", a, b)
	checkSameShape("MulElem", dst, a)
	forRows(pool, lvl, a.Rows, a.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar, br, dr := a.RowView(i), b.RowView(i), dst.RowView(i)
			for j := range ar {
				dr[j] = ar[j] * br[j]
			}
		}
	})
}

// ColSums accumulates the column sums of m into out (len m.Cols):
// out[j] = Σ_i m[i,j]. Bias gradients reduce through this kernel. The
// parallel levels reduce privately per block, into a pooled scratch
// buffer, and combine in block order so the result is deterministic.
func ColSums(pool *parallel.Pool, lvl Level, m *tensor.Matrix, out tensor.Vector) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("kernels: ColSums output length %d, want %d", len(out), m.Cols))
	}
	out.Zero()
	if m.Rows == 0 {
		return
	}
	t := team(pool, lvl, cost(nsColSums, m.Rows, m.Cols))
	if t.Workers() == 1 {
		for i := 0; i < m.Rows; i++ {
			row := m.RowView(i)
			for j, v := range row {
				out[j] += v
			}
		}
		return
	}
	workers := t.Workers()
	per := (m.Rows + workers - 1) / workers
	blocks := (m.Rows + per - 1) / per
	ar := prec64.arenas.Get().(*arena[float64])
	partials := ar.ensure(blocks * m.Cols)
	t.For(m.Rows, parallel.Static, 0, func(lo, hi int) {
		p := partials[lo/per*m.Cols : (lo/per+1)*m.Cols]
		clear(p)
		for i := lo; i < hi; i++ {
			row := m.RowView(i)
			for j, v := range row {
				p[j] += v
			}
		}
	})
	for b := 0; b < blocks; b++ {
		for j, v := range partials[b*m.Cols : (b+1)*m.Cols] {
			out[j] += v
		}
	}
	prec64.arenas.Put(ar)
}

// SampleBernoulli fills dst[i,j] with 1 if u < p[i,j] else 0, where u are
// uniform variates from streams split off r. Each row block gets its own
// split stream keyed by block start, so results are deterministic for a
// fixed seed regardless of worker count or schedule — a property the tests
// rely on. This is the stochastic binary-unit sampling step of CD-k.
func SampleBernoulli(pool *parallel.Pool, lvl Level, dst, p *tensor.Matrix, r *rng.RNG) {
	checkSameShape("SampleBernoulli", dst, p)
	base := r.Uint64() // one draw: advances r so successive calls differ
	sampleRow := func(i int) {
		rr := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
		pr, dr := p.RowView(i), dst.RowView(i)
		for j, pv := range pr {
			dr[j] = rr.Bernoulli(pv)
		}
	}
	forRows(pool, lvl, p.Rows, p.Cols, nsSample, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sampleRow(i)
		}
	})
}

// SumSquaredDiff returns Σ (a−b)² over all elements, the unnormalized
// reconstruction error of Eq. 3.
func SumSquaredDiff(pool *parallel.Pool, lvl Level, a, b *tensor.Matrix) float64 {
	checkSameShape("SumSquaredDiff", a, b)
	body := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			ar, br := a.RowView(i), b.RowView(i)
			for j := range ar {
				d := ar[j] - br[j]
				s += d * d
			}
		}
		return s
	}
	return team(pool, lvl, cost(nsAxpy, a.Rows, a.Cols)).ReduceSum(a.Rows, body)
}

// AddKLSparsityDelta adds the sparsity-penalty term of the hidden-layer
// delta in place (the β·(−ρ/ρ̂ + (1−ρ)/(1−ρ̂)) broadcast of Eq. 5's
// gradient): delta[i,j] += coeff[j], then multiplies the whole row by the
// activation derivative dY[i,j] when dY is non-nil.
func AddKLSparsityDelta(pool *parallel.Pool, lvl Level, delta *tensor.Matrix, coeff tensor.Vector, dY *tensor.Matrix) {
	if len(coeff) != delta.Cols {
		panic(fmt.Sprintf("kernels: AddKLSparsityDelta coeff length %d, want %d", len(coeff), delta.Cols))
	}
	if dY != nil {
		checkSameShape("AddKLSparsityDelta", delta, dY)
	}
	forRows(pool, lvl, delta.Rows, delta.Cols, nsAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dr := delta.RowView(i)
			if dY != nil {
				yr := dY.RowView(i)
				for j := range dr {
					dr[j] = (dr[j] + coeff[j]) * yr[j]
				}
			} else {
				for j := range dr {
					dr[j] += coeff[j]
				}
			}
		}
	})
}

// AddGaussianNoise fills dst[i,j] = mean[i,j] + sigma·N(0,1), with the same
// deterministic per-row stream splitting as SampleBernoulli, so results are
// independent of worker count and schedule. This is the visible-unit
// sampling step of a Gaussian–Bernoulli RBM.
func AddGaussianNoise(pool *parallel.Pool, lvl Level, dst, mean *tensor.Matrix, sigma float64, r *rng.RNG) {
	checkSameShape("AddGaussianNoise", dst, mean)
	base := r.Uint64()
	forRows(pool, lvl, mean.Rows, mean.Cols, nsNoise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rr := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
			mr, dr := mean.RowView(i), dst.RowView(i)
			for j, mv := range mr {
				dr[j] = mv + sigma*rr.Norm()
			}
		}
	})
}
