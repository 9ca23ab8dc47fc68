package data

import (
	"math"
	"testing"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// drawSegmentOracle is the rasteriser as it was before the line-distance
// rejection: every pixel of the padded bounding box goes through the
// projection, the clamps and the Hypot. drawSegment must write the same
// bits.
func drawSegmentOracle(img []float64, side int, x0, y0, x1, y1, pen float64) {
	dx, dy := x1-x0, y1-y0
	len2 := dx*dx + dy*dy
	minX := max(int(math.Floor(math.Min(x0, x1)-pen-1)), 0)
	maxX := min(int(math.Ceil(math.Max(x0, x1)+pen+1)), side-1)
	minY := max(int(math.Floor(math.Min(y0, y1)-pen-1)), 0)
	maxY := min(int(math.Ceil(math.Max(y0, y1)+pen+1)), side-1)
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			t := 0.0
			if len2 > 0 {
				t = ((px-x0)*dx + (py-y0)*dy) / len2
				t = math.Min(1, math.Max(0, t))
			}
			qx, qy := x0+t*dx, y0+t*dy
			dist := math.Hypot(px-qx, py-qy)
			v := 1 - (dist - pen + 0.5)
			if v <= 0 {
				continue
			}
			if v > 1 {
				v = 1
			}
			if p := y*side + x; v > img[p] {
				img[p] = v
			}
		}
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDrawSegmentMatchesOracle: random strokes — in and out of the image,
// degenerate, axis-aligned, overlapping an earlier stroke — rasterise to
// the oracle's bits at the sides the workloads render.
func TestDrawSegmentMatchesOracle(t *testing.T) {
	r := rng.New(7)
	for _, side := range []int{8, 12, 28, 32} {
		s := float64(side)
		got, want := make([]float64, side*side), make([]float64, side*side)
		for n := 0; n < 20000; n++ {
			x0, y0 := r.Uniform(-0.2*s, 1.2*s), r.Uniform(-0.2*s, 1.2*s)
			x1, y1 := r.Uniform(-0.2*s, 1.2*s), r.Uniform(-0.2*s, 1.2*s)
			switch n % 8 {
			case 0:
				x1, y1 = x0, y0 // a dot: len2 == 0
			case 1:
				x1 = x0
			case 2:
				y1 = y0
			}
			pen := math.Max(0.9, s*r.Uniform(0.04, 0.08))
			if n%4 == 0 { // start a fresh image; otherwise draw over the last
				clear(got)
				clear(want)
			}
			drawSegment(got, side, x0, y0, x1, y1, pen)
			drawSegmentOracle(want, side, x0, y0, x1, y1, pen)
			if p := sameBits(got, want); p >= 0 {
				t.Fatalf("side %d stroke %d (%g,%g)-(%g,%g) pen %g: pixel %d = %v, oracle %v",
					side, n, x0, y0, x1, y1, pen, p, got[p], want[p])
			}
		}
	}
}

// renderOracle is Digits.render over the oracle rasteriser.
func (d *Digits) renderOracle(idx int, out []float64) {
	r := rng.New(d.Seed ^ (0xa0761d6478bd642f * uint64(idx%d.N+1)))
	digit := r.Intn(10)
	side := float64(d.Side)
	scale := side * r.Uniform(0.55, 0.85)
	cx := side*0.5 + side*r.Uniform(-0.08, 0.08)
	cy := side*0.5 + side*r.Uniform(-0.08, 0.08)
	slant := r.Uniform(-0.2, 0.2)
	pen := math.Max(0.9, side*r.Uniform(0.04, 0.08))
	clear(out)
	for _, s := range glyphs[digit] {
		x0 := cx + scale*(s.x0-0.5+slant*(0.5-s.y0))
		y0 := cy + scale*(s.y0-0.5)
		x1 := cx + scale*(s.x1-0.5+slant*(0.5-s.y1))
		y1 := cy + scale*(s.y1-0.5)
		drawSegmentOracle(out, d.Side, x0, y0, x1, y1, pen)
	}
	if d.Noise > 0 {
		for p := range out {
			v := out[p] + r.Uniform(-d.Noise, d.Noise)
			out[p] = math.Min(1, math.Max(0, v))
		}
	}
}

// TestDigitsChunkMatchesOracle: whole chunks, wrapping past the end of the
// dataset, are bitwise what the oracle rasteriser renders, for several
// seeds and sides.
func TestDigitsChunkMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		for _, side := range []int{8, 12, 28} {
			d := NewDigits(side, 300, seed, 0.05)
			dst := tensor.NewMatrix(128, d.Dim())
			want := make([]float64, d.Dim())
			for _, start := range []int{0, 250} {
				d.Chunk(start, dst.Rows, dst)
				for i := 0; i < dst.Rows; i++ {
					d.renderOracle((start+i)%d.N, want)
					if p := sameBits(dst.RowView(i), want); p >= 0 {
						t.Fatalf("seed %d side %d example %d: pixel %d = %v, oracle %v",
							seed, side, (start+i)%d.N, p, dst.RowView(i)[p], want[p])
					}
				}
			}
		}
	}
}
