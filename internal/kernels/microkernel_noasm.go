//go:build !amd64 || noasm

package kernels

// Non-amd64 and -tags noasm builds always take the pure-Go micro-kernels;
// the assembly entry points below exist only so the dispatch compiles.
func detectKernelPath() kernelPath { return pathGo }

func dgemmKernel4x8(kc int, ap, bp, out *float64) {
	panic("kernels: assembly micro-kernel not available in this build")
}

func dgemmKernel4x8s(kc int, a *float64, rsA, csA int, bp, out *float64) {
	panic("kernels: assembly micro-kernel not available in this build")
}

func sgemmKernel8x16(kc int, ap, bp, out *float32) {
	panic("kernels: assembly micro-kernel not available in this build")
}

func dgemmKernel4x24(kc int, ap, bp, out *float64) {
	panic("kernels: assembly micro-kernel not available in this build")
}

func sgemmKernel8x32(kc int, ap, bp, out *float32) {
	panic("kernels: assembly micro-kernel not available in this build")
}

func sigmoid64(dst, src []float64) int {
	panic("kernels: assembly sigmoid not available in this build")
}

func sigmoid32(dst, src []float32) int {
	panic("kernels: assembly sigmoid not available in this build")
}
