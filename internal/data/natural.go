package data

import (
	"fmt"
	"math"
	"sync"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// NaturalPatches is a Source of patches randomly extracted from synthetic
// "natural" images, standing in for the Olshausen natural-image set of the
// paper. Base images are sums of box-smoothed white noise over several
// octaves, which yields the approximately 1/f spatial spectrum and local
// smoothness of natural scenes. Patches are rescaled into [0.1, 0.9], the
// conventional range for sigmoid autoencoder targets.
type NaturalPatches struct {
	PatchSide int // patch side length; Dim() = PatchSide²
	N         int
	Seed      uint64

	ImageSide int // side of the base images
	NumImages int // number of base images

	once   sync.Once
	images []*tensor.Matrix
}

// MinPatchSide is the smallest patch side NewNaturalPatches cuts.
const MinPatchSide = 2

// NewNaturalPatches returns a patch source with dim = patchSide² pixels
// drawn from 8 base images of 256×256. It panics if patchSide <
// MinPatchSide.
func NewNaturalPatches(patchSide, n int, seed uint64) *NaturalPatches {
	if patchSide < MinPatchSide {
		panic(fmt.Sprintf("data: NewNaturalPatches patch side %d too small", patchSide))
	}
	imgSide := 256
	for imgSide < 2*patchSide {
		imgSide *= 2
	}
	return &NaturalPatches{PatchSide: patchSide, N: n, Seed: seed, ImageSide: imgSide, NumImages: 8}
}

// Dim implements Source.
func (s *NaturalPatches) Dim() int { return s.PatchSide * s.PatchSide }

// Len implements Source.
func (s *NaturalPatches) Len() int { return s.N }

// Chunk implements Source.
func (s *NaturalPatches) Chunk(start, n int, dst *tensor.Matrix) {
	checkChunk(s, start, n, dst)
	s.once.Do(s.buildImages)
	for i := 0; i < n; i++ {
		idx := (start + i) % s.N
		s.extract(idx, dst.RowView(i))
	}
}

// buildImages synthesizes the base images once, lazily.
func (s *NaturalPatches) buildImages() {
	s.images = make([]*tensor.Matrix, s.NumImages)
	for k := range s.images {
		s.images[k] = synthNaturalImage(s.ImageSide, rng.New(s.Seed^(0xe7037ed1a0b428db*uint64(k+1))))
	}
}

// extract copies patch idx into out and rescales it to [0.1, 0.9].
func (s *NaturalPatches) extract(idx int, out []float64) {
	r := rng.New(s.Seed ^ (0x8ebc6af09c88c6e3 * uint64(idx%s.N+1)))
	img := s.images[r.Intn(len(s.images))]
	maxOff := s.ImageSide - s.PatchSide
	ox := r.Intn(maxOff + 1)
	oy := r.Intn(maxOff + 1)
	k := 0
	minV, maxV := math.Inf(1), math.Inf(-1)
	for y := 0; y < s.PatchSide; y++ {
		row := img.RowView(oy + y)
		for x := 0; x < s.PatchSide; x++ {
			v := row[ox+x]
			out[k] = v
			k++
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	span := maxV - minV
	if span == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return
	}
	scale := 0.8 / span
	for i := range out {
		out[i] = 0.1 + (out[i]-minV)*scale
	}
}

// synthNaturalImage builds one side×side image as a sum of box-blurred
// white-noise octaves: octave o contributes noise smoothed over a window of
// ~2^o pixels with amplitude ∝ 2^o, approximating a 1/f amplitude spectrum.
func synthNaturalImage(side int, r *rng.RNG) *tensor.Matrix {
	img := tensor.NewMatrix(side, side)
	noise := tensor.NewMatrix(side, side)
	octaves := 0
	for w := 2; w < side/4; w *= 2 {
		octaves++
	}
	amp := 1.0
	for o := 0; o < octaves; o++ {
		noise.RandomizeNorm(r, 1)
		// Start at a 2-pixel window: a raw white-noise octave would put
		// half the patch energy at the pixel scale, which natural images
		// do not have.
		window := 2 << o
		boxBlurSeparable(noise, window)
		for i := 0; i < side; i++ {
			dst, src := img.RowView(i), noise.RowView(i)
			for j := range dst {
				dst[j] += amp * src[j]
			}
		}
		amp *= 2
	}
	return img
}

// boxBlurSeparable smooths m in place with a horizontal then vertical
// running-mean of the given window (clamped at borders).
func boxBlurSeparable(m *tensor.Matrix, window int) {
	side := m.Rows
	tmp := make([]float64, side)
	half := window / 2
	// Horizontal pass.
	for i := 0; i < side; i++ {
		row := m.RowView(i)
		runningMean(row, tmp, half)
		copy(row, tmp)
	}
	// Vertical pass via a gathered column buffer.
	col := make([]float64, side)
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			col[i] = m.At(i, j)
		}
		runningMean(col, tmp, half)
		for i := 0; i < side; i++ {
			m.Set(i, j, tmp[i])
		}
	}
}

// runningMean writes into dst the mean of src over [i-half, i+half],
// clamped to the slice bounds, using a prefix-sum for O(n).
func runningMean(src, dst []float64, half int) {
	n := len(src)
	prefix := make([]float64, n+1)
	for i, v := range src {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > n {
			hi = n
		}
		dst[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
}
