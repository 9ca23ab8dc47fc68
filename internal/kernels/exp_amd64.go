//go:build amd64 && !noasm

package kernels

// sigmoid64 writes dst[j] = 1/(1+Exp(-src[j])) over the 4-lane blocks of
// src from the start, with AVX2 and FMA, and returns how many elements it
// wrote: a multiple of 4, stopping before the first block with a lane
// outside (−708, 708) or a NaN lane, or when fewer than four elements
// remain. Every lane it writes is bitwise what the scalar expression
// gives. len(dst) must be at least len(src); dst may alias src.
//
//go:noescape
func sigmoid64(dst, src []float64) int

// sigmoid32 is sigmoid64 on float32 data: dst[j] =
// float32(1/(1+Exp(-float64(src[j])))), under the same block rule.
//
//go:noescape
func sigmoid32(dst, src []float32) int
