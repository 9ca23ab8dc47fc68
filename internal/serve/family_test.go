package serve

import (
	"reflect"
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
)

// TestInvalidConfigRejected: a model whose config its family rejects must
// fail New with that error at both precisions, without panicking (the host
// replicas build no device model that would reject it), and so must an
// out-of-range fault config, which would otherwise leave injection
// silently off.
func TestInvalidConfigRejected(t *testing.T) {
	conv := convTestConfig()
	conv.Classes = 1
	models := []struct {
		model *Model
		want  string
	}{
		{Autoencoder(autoencoder.Config{Visible: 8, Hidden: 0}, nil), "autoencoder: non-positive layer size 8×0"},
		{RBM(rbm.Config{Visible: 8, Hidden: 0}, nil), "rbm: non-positive layer size 8×0"},
		{MLP(mlp.Config{Sizes: []int{8, 0, 3}}, nil), "mlp: layer 1 has non-positive size 0"},
		{Convnet(conv, nil), "convnet: need at least 2 classes"},
	}
	for _, m := range models {
		for _, prec := range []Precision{F64, F32} {
			s, err := New(m.model, Config{Precision: prec})
			if err == nil {
				s.Close()
				t.Fatalf("%s at %s: served an invalid config", m.model.Kind(), prec)
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Fatalf("%s at %s: error %q, want it to say %q", m.model.Kind(), prec, err, m.want)
			}
		}
	}
	model := Autoencoder(aeTestConfig(), nil)
	for _, fc := range []device.FaultConfig{{Rate: -0.5}, {PermanentFrac: 3}, {MaxRetries: -1}} {
		if s, err := New(model, Config{Faults: fc}); err == nil {
			s.Close()
			t.Fatalf("fault config %+v: served with injection silently off", fc)
		}
	}
}

// TestAutoencoderSnapshotPacksOneDecoder: the snapshot holds the encoder
// and only the decoder the config uses — W1ᵀ when tied, W2 otherwise.
func TestAutoencoderSnapshotPacksOneDecoder(t *testing.T) {
	for _, tied := range []bool{false, true} {
		cfg := aeTestConfig()
		cfg.Tied = tied
		p := autoencoder.NewParams(cfg, 3)
		layers := autoencoderLayers[float32](cfg, p)
		if len(layers) != 2 {
			t.Fatalf("tied=%v: %d layers, want encoder and one decoder", tied, len(layers))
		}
		w1T, w2 := kernels.PackB(p.W1.To32(), true), kernels.PackB(p.W2.To32(), false)
		want, other := w2, w1T
		if tied {
			want, other = w1T, w2
		}
		if dec := layers[1].W; !reflect.DeepEqual(dec, want) || reflect.DeepEqual(dec, other) {
			t.Fatalf("tied=%v: decoder is not the one the config uses", tied)
		}
		if !reflect.DeepEqual(layers[0].W, kernels.PackB(p.W1.To32(), false)) {
			t.Fatalf("tied=%v: encoder is not W1", tied)
		}
	}
}
