package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedWellMixed(t *testing.T) {
	r := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 0 {
		t.Fatalf("zero seed produced %d zero outputs", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(4)
	n := 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("variance %g far from 1/12", variance)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	n := 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %g", variance)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(6)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform(-2,3) = %g", v)
		}
	}
}

// TestAddUniformMatchesUniformLoop: AddUniform draws the same stream and
// adds the same bits as a loop over Uniform, and leaves the generator where
// that loop would.
func TestAddUniformMatchesUniformLoop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 784} {
		a, b := New(uint64(n)+11), New(uint64(n)+11)
		got, want := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = float64(i%5) * 0.25
			want[i] = got[i]
		}
		a.AddUniform(got, -0.05, 0.05)
		for i := range want {
			want[i] += b.Uniform(-0.05, 0.05)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: element %d = %v, Uniform loop %v", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: generator state diverged after AddUniform", n)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(8)
	if r.Bernoulli(0) != 0 {
		t.Fatal("Bernoulli(0) must be 0")
	}
	if r.Bernoulli(1) != 1 {
		t.Fatal("Bernoulli(1) must be 1")
	}
	ones := 0.0
	for i := 0; i < 10000; i++ {
		ones += r.Bernoulli(0.7)
	}
	if f := ones / 10000; math.Abs(f-0.7) > 0.02 {
		t.Fatalf("Bernoulli(0.7) frequency %g", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(9)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestMarshalRoundTripContinuesStream(t *testing.T) {
	r := New(42)
	r.Norm() // leave a cached Box-Muller spare in the state
	state, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != MarshaledSize() {
		t.Fatalf("state is %d bytes, want %d", len(state), MarshaledSize())
	}
	want := make([]float64, 10)
	for i := range want {
		want[i] = r.Norm()
	}
	restored := New(0)
	if err := restored.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := restored.Norm(); got != want[i] {
			t.Fatalf("restored stream diverged at %d: %g vs %g", i, got, want[i])
		}
	}
}

func TestUnmarshalRejectsBadState(t *testing.T) {
	r := New(1)
	if err := r.UnmarshalBinary(make([]byte, 7)); err == nil {
		t.Fatal("short state accepted")
	}
	state, _ := New(2).MarshalBinary()
	state[40] = 9
	if err := r.UnmarshalBinary(state); err == nil {
		t.Fatal("corrupt spare flag accepted")
	}
}
