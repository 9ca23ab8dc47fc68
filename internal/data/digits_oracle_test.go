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

// stroke is one drawSegment call's geometry.
type stroke struct{ x0, y0, x1, y1, pen float64 }

// checkStrokes draws the strokes in order with drawSegment and with the
// oracle, starting a fresh image every fourth stroke and otherwise drawing
// over the last, and fails at the first pixel whose bits differ.
func checkStrokes(t *testing.T, side int, strokes []stroke) {
	t.Helper()
	got, want := make([]float64, side*side), make([]float64, side*side)
	for n, s := range strokes {
		if n%4 == 0 {
			clear(got)
			clear(want)
		}
		drawSegment(got, side, s.x0, s.y0, s.x1, s.y1, s.pen)
		drawSegmentOracle(want, side, s.x0, s.y0, s.x1, s.y1, s.pen)
		if p := sameBits(got, want); p >= 0 {
			t.Fatalf("side %d stroke %d (%g,%g)-(%g,%g) pen %g: pixel %d = %v, oracle %v",
				side, n, s.x0, s.y0, s.x1, s.y1, s.pen, p, got[p], want[p])
		}
	}
}

// TestDrawSegmentMatchesOracle: strokes rasterise to the oracle's bits
// at the sides the workloads render. The random ones are in and out of the
// image, degenerate, axis-aligned and overlapping an earlier stroke; the
// hostile ones are those the span bounds and the classification slack are
// most likely to get wrong.
func TestDrawSegmentMatchesOracle(t *testing.T) {
	r := rng.New(11)
	tiny := []float64{0, 5e-324, 1e-300, 1e-160, 1e-155, 1e-20, 1e-13, 1e-12, 1e-9, 1e-7}
	gens := []struct {
		name string
		gen  func(s float64) stroke
	}{
		{"random", func(s float64) stroke {
			x0, y0 := r.Uniform(-0.2*s, 1.2*s), r.Uniform(-0.2*s, 1.2*s)
			x1, y1 := r.Uniform(-0.2*s, 1.2*s), r.Uniform(-0.2*s, 1.2*s)
			switch r.Intn(8) {
			case 0:
				x1, y1 = x0, y0 // a dot: len2 == 0
			case 1:
				x1 = x0
			case 2:
				y1 = y0
			}
			return stroke{x0, y0, x1, y1, math.Max(0.9, s*r.Uniform(0.04, 0.08))}
		}},
		// |dx| or |dy| ≤ 1e-12: a band's division by a vanishing slope.
		{"near-horizontal", func(s float64) stroke {
			x0, y0, x1 := r.Uniform(-0.2*s, 1.2*s), r.Uniform(0, s), r.Uniform(-0.2*s, 1.2*s)
			d := tiny[r.Intn(len(tiny))] * r.Uniform(-1, 1)
			return stroke{x0, y0, x1, y0 + d, r.Uniform(0.3, 0.1*s)}
		}},
		{"near-vertical", func(s float64) stroke {
			x0, y0, y1 := r.Uniform(0, s), r.Uniform(-0.2*s, 1.2*s), r.Uniform(-0.2*s, 1.2*s)
			d := tiny[r.Intn(len(tiny))] * r.Uniform(-1, 1)
			return stroke{x0, y0, x0 + d, y1, r.Uniform(0.3, 0.1*s)}
		}},
		// pen ≤ 0.5: no sure core, and below −0.5 nothing at all.
		{"thin-pen", func(s float64) stroke {
			pens := []float64{0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.25, 0, -0.25, -0.5, -2}
			return stroke{r.Uniform(0, s), r.Uniform(0, s), r.Uniform(0, s), r.Uniform(0, s), pens[r.Intn(len(pens))]}
		}},
		// Shorter than a pixel, down to a dot and to a len2 that underflows.
		{"sub-pixel", func(s float64) stroke {
			x0, y0 := r.Uniform(0, s), r.Uniform(0, s)
			l := r.Uniform(0, 1)
			if r.Intn(2) == 0 {
				l = tiny[r.Intn(len(tiny))]
			}
			a := r.Uniform(0, 2*math.Pi)
			return stroke{x0, y0, x0 + l*math.Cos(a), y0 + l*math.Sin(a), r.Uniform(0.3, 0.1*s)}
		}},
		// Wholly off one side of the image, some by less than the pen.
		{"off-image", func(s float64) stroke {
			pen := r.Uniform(0.5, 0.1*s)
			off := -pen - r.Uniform(-1.5, 3)
			st := stroke{off, r.Uniform(-s, 2*s), off - r.Uniform(0, s), r.Uniform(-s, 2*s), pen}
			switch r.Intn(4) {
			case 1: // right
				st.x0, st.x1 = s-st.x0, s-st.x1
			case 2: // above
				st.x0, st.y0, st.x1, st.y1 = st.y0, st.x0, st.y1, st.x1
			case 3: // below
				st.x0, st.y0, st.x1, st.y1 = st.y0, s-st.x0, st.y1, s-st.x1
			}
			return st
		}},
		// Endpoints out at ±1e6 with the stroke crossing the image, or
		// passing near it.
		{"far-coordinates", func(s float64) stroke {
			a := r.Uniform(0, 2*math.Pi)
			cx, cy := r.Uniform(-0.5*s, 1.5*s), r.Uniform(-0.5*s, 1.5*s)
			l0, l1 := r.Uniform(0, 1e6), r.Uniform(0, 1e6)
			if r.Intn(3) == 0 {
				l1 = r.Uniform(-s, s)
			}
			pen := r.Uniform(0.3, 0.1*s)
			if r.Intn(8) == 0 {
				pen = r.Uniform(0, 1e6)
			}
			return stroke{cx - l0*math.Cos(a), cy - l0*math.Sin(a), cx + l1*math.Cos(a), cy + l1*math.Sin(a), pen}
		}},
		// Shorter than 1e-6 and classified as a dot: pixel centres a whole
		// number of pixels from one end, with the pen's edge between the
		// two ends.
		{"dot-edge", func(s float64) stroke {
			x0, y0 := float64(r.Intn(int(s)))+0.5, float64(r.Intn(int(s)))+0.5
			l := r.Uniform(1e-7, 9e-7) * float64(1-2*r.Intn(2))
			st := stroke{x0, y0, x0 + l, y0, float64(r.Intn(2*int(s)/3+1))*0.5 + 1 - r.Uniform(0, math.Abs(l))}
			if r.Intn(2) == 0 {
				st.x1, st.y1 = x0, y0+l
			}
			return st
		}},
		// Endpoints on pixel centres and corners and pens on half-pixels,
		// so distances land exactly on the falloff ring's edges.
		{"grid-aligned", func(s float64) stroke {
			g := func() float64 { return float64(r.Intn(2*int(s)+8)-4) * 0.5 }
			return stroke{g(), g(), g(), g(), float64(r.Intn(int(s)/2+2)) * 0.5}
		}},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for _, side := range []int{8, 12, 16, 28, 32} {
				strokes := make([]stroke, 5000)
				for n := range strokes {
					strokes[n] = g.gen(float64(side))
				}
				checkStrokes(t, side, strokes)
			}
		})
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
		for _, side := range []int{8, 12, 16, 28, 32} {
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

// FuzzDrawSegment: any finite stroke (coordinates and pen within ±1e7)
// drawn over a non-empty image of any side up to 64 writes the oracle's
// bits. The image is random intensities with some exact zeros and ones,
// the same in both copies.
func FuzzDrawSegment(f *testing.F) {
	f.Add(uint8(28), 6.3, 4.1, 19.7, 22.4, 1.7, uint64(1))       // a digit stroke
	f.Add(uint8(12), 5.5, 5.5, 5.5, 5.5, 0.9, uint64(2))         // a dot on a pixel centre
	f.Add(uint8(16), -3.0, 7.2, 20.0, 7.2+1e-13, 1.2, uint64(3)) // near-horizontal
	f.Add(uint8(32), 9.1, -4.0, 9.1-1e-12, 40.0, 2.4, uint64(4)) // near-vertical
	f.Add(uint8(8), 1.2, 6.8, 6.6, 0.7, 0.5, uint64(5))          // no sure core
	f.Add(uint8(32), -1e6, -1e6, 1e6, 1e6, 2.0, uint64(6))       // far coordinates
	f.Add(uint8(16), 2.5, 3.5, 12.5, 3.5, 1.5, uint64(7))        // on the grid
	f.Add(uint8(28), -9.0, 3.0, -4.0, 25.0, 2.2, uint64(8))      // off the image
	// A pixel whose computed distance rounds below pen−0.5 while the
	// oracle's does not: the classification without its slack writes 1
	// there, the oracle 0.9999999999999997.
	f.Add(uint8(12), 16.5, 16.5, 5.5, 1.8333333333333333, 0.9, uint64(2))
	f.Fuzz(func(t *testing.T, sideByte uint8, x0, y0, x1, y1, pen float64, seed uint64) {
		for _, v := range []float64{x0, y0, x1, y1, pen} {
			if !(math.Abs(v) <= 1e7) {
				return
			}
		}
		side := 1 + int(sideByte)%64
		r := rng.New(seed)
		got := make([]float64, side*side)
		for p := range got {
			switch r.Intn(4) {
			case 0:
			case 1:
				got[p] = 1
			default:
				got[p] = r.Float64()
			}
		}
		want := append([]float64(nil), got...)
		drawSegment(got, side, x0, y0, x1, y1, pen)
		drawSegmentOracle(want, side, x0, y0, x1, y1, pen)
		if p := sameBits(got, want); p >= 0 {
			t.Fatalf("side %d (%g,%g)-(%g,%g) pen %g: pixel %d = %v, oracle %v",
				side, x0, y0, x1, y1, pen, p, got[p], want[p])
		}
	})
}
