package kernels

import (
	"testing"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Shapes the serial cost table is measured at: the benchmark workloads'
// layers (bench/train.go, bench/probes.go).
var (
	// train-convnet-feed: 16×16 digits, 6 filters of 5×5, then 12 of 3×3
	// over the 2×2-pooled map, batch 64.
	costConv1 = ConvShape{C: 1, H: 16, W: 16, F: 6, KH: 5, KW: 5, Stride: 1, Pad: 2}
	costConv2 = ConvShape{C: 6, H: 8, W: 8, F: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	costPool1 = PoolShape{C: 6, H: 16, W: 16, Size: 2, Stride: 2}
)

const costBatch = 64

// gemmForms returns the forward, data-gradient and weight-gradient forms
// (NN, NT, TN) of a dense layer's m×k×n product.
func gemmForms(m, k, n int) [][5]int {
	return [][5]int{{m, k, n, 0, 0}, {m, n, k, 0, 1}, {k, m, n, 1, 0}}
}

// benchGemmSerial times the given GEMMs at lvl with no pool and reports
// nanoseconds per multiply-add.
func benchGemmSerial(b *testing.B, lvl Level, cases [][5]int) {
	r := rng.New(1)
	type op struct {
		ta, tb  bool
		a, x, c *tensor.Matrix
	}
	var ops []op
	fmas := 0
	for _, cs := range cases {
		m, k, n, ta, tb := cs[0], cs[1], cs[2], cs[3] == 1, cs[4] == 1
		ops = append(ops, op{ta, tb, opRand[float64](r, m, k, ta, 0), opRand[float64](r, k, n, tb, 0), tensor.NewMatrix(m, n)})
		fmas += m * k * n
	}
	b.ResetTimer()
	for range b.N {
		for _, o := range ops {
			gemm(nil, lvl, o.ta, o.tb, 1, o.a, o.x, nil, 0, o.c)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fmas), "ns/unit")
}

// benchSerial times body, which does units of work, and reports
// nanoseconds per unit.
func benchSerial(b *testing.B, units int, body func()) {
	body()
	b.ResetTimer()
	for range b.N {
		body()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), "ns/unit")
}

// BenchmarkSerialCost measures the coefficients of the serial cost table
// (cost.go): each sub-benchmark runs one kernel on the caller alone, at
// the blocked level the benchmark workloads train at (the scalar GEMM at
// Naive), and reports ns/unit in the unit its coefficient is charged in.
func BenchmarkSerialCost(b *testing.B) {
	r := rng.New(2)
	rnd := func(rows, cols int) *tensor.Matrix { return tensor.NewMatrix(rows, cols).Randomize(r, -2, 2) }
	m1 := costBatch * costConv1.OutH() * costConv1.OutW()
	m2 := costBatch * costConv2.OutH() * costConv2.OutW()

	b.Run("gemm64-small", func(b *testing.B) { benchGemmSerial(b, Blocked, gemmForms(32, 144, 64)) })
	b.Run("gemm64-conv", func(b *testing.B) {
		benchGemmSerial(b, Blocked, [][5]int{
			{m1, costConv1.ColK(), costConv1.F, 0, 0},
			{m2, costConv2.ColK(), costConv2.F, 0, 0},
			{m2, costConv2.F, costConv2.ColK(), 0, 1},
			{costConv2.ColK(), m2, costConv2.F, 1, 0},
		})
	})
	b.Run("gemm64-large", func(b *testing.B) { benchGemmSerial(b, Blocked, gemmForms(256, 1024, 512)) })
	b.Run("gemm64-scalar", func(b *testing.B) { benchGemmSerial(b, Naive, gemmForms(32, 144, 64)) })

	h, prob := rnd(32, 64), tensor.NewMatrix(32, 64)
	b.Run("sigmoid", func(b *testing.B) { benchSerial(b, 32*64, func() { Sigmoid(nil, Blocked, prob, h) }) })
	b.Run("sample", func(b *testing.B) {
		Sigmoid(nil, Blocked, prob, h)
		benchSerial(b, 32*64, func() { SampleBernoulli(nil, Blocked, h, prob, r) })
	})
	v, vr := rnd(32, 144), tensor.NewMatrix(32, 144)
	b.Run("noise", func(b *testing.B) { benchSerial(b, 32*144, func() { AddGaussianNoise(nil, Blocked, vr, v, 1, r) }) })
	w, dw, bias := rnd(144, 64), rnd(144, 64), tensor.NewVector(64)
	v2 := rnd(32, 144)
	b.Run("axpy", func(b *testing.B) {
		benchSerial(b, 2*144*64+32*64+3*32*144, func() {
			Axpy(nil, Blocked, 0.5, dw, w)
			Scale(nil, Blocked, 0.5, dw)
			AddBiasRow(nil, Blocked, h, bias)
			Sub(nil, Blocked, vr, v, v2)
			MulElem(nil, Blocked, vr, vr, v2)
			SumSquaredDiff(nil, Blocked, v, v2)
		})
	})
	sums := tensor.NewVector(144)
	b.Run("colsums", func(b *testing.B) { benchSerial(b, 32*144, func() { ColSums(nil, Blocked, v, sums) }) })

	x := rnd(costBatch, costConv1.InDim())
	cols := tensor.NewMatrix(m1, costConv1.ColK())
	b.Run("im2col", func(b *testing.B) {
		benchSerial(b, m1*costConv1.ColK(), func() { Im2col(nil, Blocked, costConv1, costBatch, x, cols) })
	})
	dx := tensor.NewMatrix(costBatch, costConv1.InDim())
	b.Run("col2im", func(b *testing.B) {
		benchSerial(b, m1*costConv1.ColK(), func() { Col2im(nil, Blocked, costConv1, costBatch, cols, dx) })
	})
	act := rnd(costBatch, costPool1.InDim())
	pooled, arg := tensor.NewMatrix(costBatch, costPool1.OutDim()), tensor.NewMatrix(costBatch, costPool1.OutDim())
	b.Run("maxpool", func(b *testing.B) {
		benchSerial(b, costBatch*costPool1.InDim(), func() { MaxPool(nil, Blocked, costPool1, costBatch, act, pooled, arg) })
	})
	dact := tensor.NewMatrix(costBatch, costPool1.InDim())
	b.Run("maxpool-backward", func(b *testing.B) {
		benchSerial(b, costBatch*costPool1.InDim(), func() { MaxPoolBackward(nil, Blocked, costPool1, costBatch, pooled, arg, dact) })
	})
	logits, probs := rnd(costBatch, 10), tensor.NewMatrix(costBatch, 10)
	b.Run("softmax", func(b *testing.B) {
		benchSerial(b, costBatch*10, func() { SoftmaxRows(nil, Blocked, probs, logits) })
	})
}
