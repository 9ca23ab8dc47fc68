package data

import (
	"fmt"
	"testing"

	"phideep/internal/tensor"
)

// BenchmarkDigitsChunk renders 512-row chunks of digits at the sides the
// workloads use (12: train-rbm-small; 16: train-convnet-feed,
// cluster-4node-feed; 28: serve-bulk-f32; 32: train-ae-large) and reports
// the wall-clock cost per rendered example:
//
//	go test -run '^$' -bench DigitsChunk ./internal/data/
func BenchmarkDigitsChunk(b *testing.B) {
	const rows = 512
	for _, side := range []int{12, 16, 28, 32} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			d := NewDigits(side, 8192, 1, 0.05)
			dst := tensor.NewMatrix(rows, d.Dim())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Chunk(i*rows%d.N, rows, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*rows), "us/example")
		})
	}
}
