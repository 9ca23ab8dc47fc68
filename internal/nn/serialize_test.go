package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
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

// FuzzLoadParamSet feeds LoadParamSet arbitrary bytes. The harness rewrites
// the CRC-64 behind the data the count field announces, so mutations get
// past the checksum to the count and data checks. A rejected input must
// leave the destination untouched; an accepted one must save back to the
// bytes it was read from.
func FuzzLoadParamSet(f *testing.F) {
	ps, _, _ := sampleParamSet(1)
	var state bytes.Buffer
	if err := SaveState(&state, ps, rng.New(2)); err != nil {
		f.Fatal(err)
	}
	f.Add(state.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		le := binary.LittleEndian
		if len(data) >= 20 {
			if n := le.Uint64(data[4:12]); n <= uint64(len(data)-20)/8 {
				end := 12 + 8*int(n)
				le.PutUint64(data[end:], crc64.Checksum(data[12:end], crcTable))
			}
		}
		ps, _, _ := sampleParamSet(1)
		before := ps.Flatten(nil)
		r := bytes.NewReader(data)
		if err := LoadParamSet(r, ps); err != nil {
			for i, v := range ps.Flatten(nil) {
				if math.Float64bits(v) != math.Float64bits(before[i]) {
					t.Fatalf("rejected input (%v) modified parameter %d", err, i)
				}
			}
			return
		}
		var out bytes.Buffer
		if err := SaveParamSet(&out, ps); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted %d bytes save back as %d different ones", len(read), out.Len())
		}
	})
}
