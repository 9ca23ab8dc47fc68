package nn

import (
	"math"
	"testing"
	"testing/quick"

	"phideep/internal/device"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func TestParamSetDeviceTransfer(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ps, m, v := sampleParamSet(6)
	shared := tensor.NewMatrix(2, 2) // a tensor the model does not hold on its own
	shared.Fill(3)
	ps.AddMatrix("shared", shared)
	bw, bb := dev.MustAlloc(4, 5), dev.MustAlloc(1, 7)
	bufs := []*device.Buffer{bw, bb, nil}

	ps.CopyIn(dev, bufs)
	if tensor.MaxAbsDiff(bw.Mat, m) != 0 || !tensor.EqualVec(bb.Mat.RowView(0), v, 0) {
		t.Fatal("CopyIn did not upload the parameters")
	}
	if dev.Stats().Transfers != 2 {
		t.Fatalf("%d transfers, want 2 (the nil entry is skipped)", dev.Stats().Transfers)
	}
	if !(bw.ReadyAt() < bb.ReadyAt()) {
		t.Fatal("transfers not issued in registration order")
	}

	wantM, wantV := m.Clone(), v.Clone()
	m.Zero()
	v.Zero()
	ps.CopyOut(dev, bufs)
	if tensor.MaxAbsDiff(m, wantM) != 0 || !tensor.EqualVec(v, wantV, 0) {
		t.Fatal("CopyOut did not download the parameters")
	}
	if shared.At(1, 1) != 3 {
		t.Fatal("CopyOut touched a skipped parameter")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ps.CopyIn(dev, bufs[:2])
}

func TestSigmoidProperties(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("σ(0)")
	}
	if s := Sigmoid(100); s <= 0.999 || s > 1 {
		t.Fatalf("σ(100) = %g", s)
	}
	if s := Sigmoid(-100); s < 0 || s >= 0.001 {
		t.Fatalf("σ(−100) = %g", s)
	}
	// Symmetry: σ(−x) = 1 − σ(x).
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 50)
		return math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidPrimeMatchesDerivative(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-3, -1, 0, 0.5, 2} {
		numeric := (Sigmoid(x+h) - Sigmoid(x-h)) / (2 * h)
		analytic := SigmoidPrime(Sigmoid(x))
		if math.Abs(numeric-analytic) > 1e-8 {
			t.Fatalf("σ'(%g): numeric %g analytic %g", x, numeric, analytic)
		}
	}
}

func TestInitRangeAndMatrix(t *testing.T) {
	r := InitRange(100, 200)
	if math.Abs(r-math.Sqrt(6.0/300)) > 1e-15 {
		t.Fatalf("InitRange %g", r)
	}
	w := tensor.NewMatrix(40, 60)
	InitMatrix(w, rng.New(1))
	hw := InitRange(40, 60)
	for i := 0; i < w.Rows; i++ {
		for _, v := range w.RowView(i) {
			if v < -hw || v >= hw {
				t.Fatalf("weight %g outside ±%g", v, hw)
			}
		}
	}
	if w.Mean() > hw/5 || w.Mean() < -hw/5 {
		t.Fatalf("weights not centered: mean %g", w.Mean())
	}
}

func TestParamSetFlattenUnflattenRoundTrip(t *testing.T) {
	ps := &ParamSet{}
	m1 := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	v1 := tensor.Vector{5, 6, 7}
	m2 := tensor.FromRows([][]float64{{8}})
	ps.AddMatrix("W", m1)
	ps.AddVector("b", v1)
	ps.AddMatrix("U", m2)
	if ps.Len() != 8 {
		t.Fatalf("Len %d", ps.Len())
	}
	flat := ps.Flatten(nil)
	want := tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}
	if !tensor.EqualVec(flat, want, 0) {
		t.Fatalf("Flatten %v", flat)
	}
	for i := range flat {
		flat[i] *= 10
	}
	ps.Unflatten(flat)
	if m1.At(1, 1) != 40 || v1[2] != 70 || m2.At(0, 0) != 80 {
		t.Fatal("Unflatten did not write back")
	}
	// Flatten into a provided destination.
	dst := tensor.NewVector(8)
	ps.Flatten(dst)
	if !tensor.EqualVec(dst, flat, 0) {
		t.Fatal("Flatten(dst) mismatch")
	}
	names := ps.Names()
	if len(names) != 3 || names[0] != "W" || names[1] != "b" {
		t.Fatalf("Names %v", names)
	}
}

func TestParamSetLengthGuards(t *testing.T) {
	ps := &ParamSet{}
	ps.AddVector("b", tensor.Vector{1, 2})
	for _, f := range []func(){
		func() { ps.Flatten(tensor.NewVector(3)) },
		func() { ps.Unflatten(tensor.NewVector(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParamSetQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, r1, c1, n uint8) bool {
		rows, cols, vn := int(r1)%10+1, int(c1)%10+1, int(n)%10+1
		g := rng.New(seed)
		ps := &ParamSet{}
		m := tensor.NewMatrix(rows, cols).Randomize(g, -1, 1)
		v := tensor.NewVector(vn).Randomize(g, -1, 1)
		ps.AddMatrix("m", m)
		ps.AddVector("v", v)
		orig := ps.Flatten(nil)
		ps.Unflatten(orig)
		again := ps.Flatten(nil)
		return tensor.EqualVec(orig, again, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
