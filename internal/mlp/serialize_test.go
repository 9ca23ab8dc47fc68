package mlp

import (
	"bytes"
	"testing"

	"phideep/internal/tensor"
)

func TestParamsCloneIsDeep(t *testing.T) {
	p := NewParams(Config{Sizes: []int{6, 4, 3}}, 1)
	c := p.Clone()
	for l := range p.W {
		if tensor.MaxAbsDiff(p.W[l], c.W[l]) != 0 || !tensor.EqualVec(p.B[l], c.B[l], 0) {
			t.Fatalf("layer %d differs from the original", l)
		}
		c.W[l].Set(0, 0, 99)
		c.B[l][0] = 99
		if p.W[l].At(0, 0) == 99 || p.B[l][0] == 99 {
			t.Fatalf("layer %d shares storage with the original", l)
		}
	}
}

func TestParamsSaveLoad(t *testing.T) {
	cfg := Config{Sizes: []int{6, 4, 3}}
	p := NewParams(cfg, 1)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := NewParams(cfg, 42)
	if err := q.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for l := range p.W {
		if tensor.MaxAbsDiff(p.W[l], q.W[l]) != 0 || !tensor.EqualVec(p.B[l], q.B[l], 0) {
			t.Fatalf("layer %d not restored", l)
		}
	}
}
