package nn

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

func sampleParamSet(seed uint64) (*ParamSet, *tensor.Matrix, tensor.Vector) {
	r := rng.New(seed)
	m := tensor.NewMatrix(4, 5).Randomize(r, -2, 2)
	v := tensor.NewVector(7).Randomize(r, -2, 2)
	ps := &ParamSet{}
	ps.AddMatrix("W", m)
	ps.AddVector("b", v)
	return ps, m, v
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ps, m, v := sampleParamSet(1)
	var buf bytes.Buffer
	if err := SaveParamSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	wantM, wantV := m.Clone(), v.Clone()
	m.Zero()
	v.Zero()
	if err := LoadParamSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(m, wantM) != 0 || !tensor.EqualVec(v, wantV, 0) {
		t.Fatal("round trip lost data")
	}
}

func TestSaveLoadQuick(t *testing.T) {
	f := func(seed uint64) bool {
		ps, m, _ := sampleParamSet(seed)
		var buf bytes.Buffer
		if SaveParamSet(&buf, ps) != nil {
			return false
		}
		want := m.Clone()
		m.Fill(9)
		if LoadParamSet(&buf, ps) != nil {
			return false
		}
		return tensor.MaxAbsDiff(m, want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ps, m, _ := sampleParamSet(2)
	var buf bytes.Buffer
	if err := SaveParamSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a data byte: checksum must catch it and leave params untouched.
	before := m.Clone()
	corrupt := append([]byte(nil), data...)
	corrupt[20] ^= 0xff
	err := LoadParamSet(bytes.NewReader(corrupt), ps)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
	if tensor.MaxAbsDiff(m, before) != 0 {
		t.Fatal("failed load modified the parameters")
	}

	// Bad magic.
	bad := append([]byte("NOPE"), data[4:]...)
	if err := LoadParamSet(bytes.NewReader(bad), ps); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not detected: %v", err)
	}

	// Truncated stream.
	if err := LoadParamSet(bytes.NewReader(data[:10]), ps); err == nil {
		t.Fatal("truncation not detected")
	}

	// Wrong parameter count.
	other := &ParamSet{}
	other.AddVector("b", tensor.NewVector(3))
	if err := LoadParamSet(bytes.NewReader(data), other); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("size mismatch not detected: %v", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	ps, m, v := sampleParamSet(4)
	src := rng.New(5)
	src.Uint64() // advance past the seed so the stream position matters
	var buf bytes.Buffer
	if err := SaveState(&buf, ps, src); err != nil {
		t.Fatal(err)
	}
	// The blob is the PHD1 parameter set followed by the RNG state.
	var params bytes.Buffer
	if err := SaveParamSet(&params, ps); err != nil {
		t.Fatal(err)
	}
	state, _ := src.MarshalBinary()
	if !bytes.Equal(buf.Bytes(), append(params.Bytes(), state...)) {
		t.Fatal("state blob is not the parameter set followed by the RNG state")
	}

	wantM, wantV := m.Clone(), v.Clone()
	m.Zero()
	v.Zero()
	dst := rng.New(99)
	if err := LoadState(&buf, ps, dst); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(m, wantM) != 0 || !tensor.EqualVec(v, wantV, 0) {
		t.Fatal("round trip lost parameters")
	}
	if dst.Uint64() != src.Uint64() {
		t.Fatal("round trip lost the RNG stream position")
	}

	// A blob cut inside the RNG state is an error.
	cut := append(params.Bytes(), state[:3]...)
	if err := LoadState(bytes.NewReader(cut), ps, dst); err == nil {
		t.Fatal("truncated RNG state not detected")
	}
}

func TestSaveDeterministic(t *testing.T) {
	ps, _, _ := sampleParamSet(3)
	var a, b bytes.Buffer
	if err := SaveParamSet(&a, ps); err != nil {
		t.Fatal(err)
	}
	if err := SaveParamSet(&b, ps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}
