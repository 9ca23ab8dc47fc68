package serve

import (
	"runtime/debug"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
)

// raceEnabled is set under the race detector, which drops a share of
// sync.Pool Puts on purpose, so pooled kernel scratch allocates there.
var raceEnabled bool

// encodeAllocs is the exact heap allocation count of one warm one-row
// Encode: the request, its input copy and done channel, the batch's output
// slice, two row views of the replica's staging, and one each in
// kernels.AddBiasRow and kernels.Sigmoid.
const encodeAllocs = 8

// TestEncodeAllocs locks the allocations of one warm one-row Encode on an
// autoencoder 1024→256 server with two workers, at both precisions. The
// collector is held off so the kernels' pooled scratch survives the runs.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, prec := range []Precision{F64, F32} {
		t.Run(prec.String(), func(t *testing.T) {
			cfg := autoencoder.Config{Visible: 1024, Hidden: 256}
			srv, err := New(Autoencoder(cfg, nil), Config{Level: core.Improved, Workers: 2, Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			x := randExamples(1, cfg.Visible, 1)[0]
			encode := func() {
				if _, err := srv.Encode(x); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				encode()
			}
			if n := testing.AllocsPerRun(200, encode); n != encodeAllocs {
				t.Fatalf("%.3f allocations per warm Encode, want %d", n, encodeAllocs)
			}
		})
	}
}
