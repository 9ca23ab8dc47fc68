package data

import (
	"fmt"
	"math"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Digits is a Source of stroke-rendered handwritten-digit-like images. Each
// example is a side×side grayscale image in [0, 1] flattened row-major, with
// a glyph for a pseudo-randomly chosen digit drawn with random center,
// scale, slant and pen width, plus additive noise — the structural
// ingredients autoencoders extract stroke features from.
type Digits struct {
	Side  int    // image side length; Dim() = Side²
	N     int    // dataset size
	Seed  uint64 // generator seed
	Noise float64
}

// NewDigits returns a digit source with dim = side² pixels. noise is the
// additive uniform noise amplitude (0.05 is a good default).
func NewDigits(side, n int, seed uint64, noise float64) *Digits {
	if side < 8 {
		panic(fmt.Sprintf("data: NewDigits side %d too small to render strokes", side))
	}
	return &Digits{Side: side, N: n, Seed: seed, Noise: noise}
}

// Dim implements Source.
func (d *Digits) Dim() int { return d.Side * d.Side }

// Len implements Source.
func (d *Digits) Len() int { return d.N }

// Chunk implements Source.
func (d *Digits) Chunk(start, n int, dst *tensor.Matrix) {
	checkChunk(d, start, n, dst)
	for i := 0; i < n; i++ {
		idx := (start + i) % d.N
		d.render(idx, dst.RowView(i))
	}
}

// Label returns the digit class (0–9) that example idx renders; useful for
// downstream classification examples.
func (d *Digits) Label(idx int) int {
	r := rng.New(d.Seed ^ (0xa0761d6478bd642f * uint64(idx%d.N+1)))
	return r.Intn(10)
}

// segment is a pen stroke in glyph coordinates ([0,1]²; origin top-left).
type segment struct{ x0, y0, x1, y1 float64 }

// glyphs holds simplified stroke skeletons for the ten digits on the
// seven-segment-like layout used by stroke fonts, with a few diagonals to
// break symmetry.
var glyphs = [10][]segment{
	0: {{0.2, 0.1, 0.8, 0.1}, {0.8, 0.1, 0.8, 0.9}, {0.8, 0.9, 0.2, 0.9}, {0.2, 0.9, 0.2, 0.1}},
	1: {{0.5, 0.1, 0.5, 0.9}, {0.35, 0.25, 0.5, 0.1}},
	2: {{0.2, 0.2, 0.8, 0.1}, {0.8, 0.1, 0.8, 0.5}, {0.8, 0.5, 0.2, 0.9}, {0.2, 0.9, 0.8, 0.9}},
	3: {{0.2, 0.1, 0.8, 0.1}, {0.8, 0.1, 0.45, 0.5}, {0.45, 0.5, 0.8, 0.65}, {0.8, 0.65, 0.65, 0.9}, {0.65, 0.9, 0.2, 0.85}},
	4: {{0.7, 0.9, 0.7, 0.1}, {0.7, 0.1, 0.2, 0.6}, {0.2, 0.6, 0.85, 0.6}},
	5: {{0.8, 0.1, 0.2, 0.1}, {0.2, 0.1, 0.2, 0.5}, {0.2, 0.5, 0.7, 0.5}, {0.7, 0.5, 0.75, 0.75}, {0.75, 0.75, 0.2, 0.9}},
	6: {{0.75, 0.1, 0.3, 0.4}, {0.3, 0.4, 0.2, 0.7}, {0.2, 0.7, 0.5, 0.9}, {0.5, 0.9, 0.8, 0.7}, {0.8, 0.7, 0.25, 0.55}},
	7: {{0.2, 0.1, 0.8, 0.1}, {0.8, 0.1, 0.4, 0.9}, {0.35, 0.5, 0.7, 0.5}},
	8: {{0.5, 0.1, 0.75, 0.3}, {0.75, 0.3, 0.25, 0.65}, {0.25, 0.65, 0.5, 0.9}, {0.5, 0.9, 0.75, 0.65}, {0.75, 0.65, 0.25, 0.3}, {0.25, 0.3, 0.5, 0.1}},
	9: {{0.75, 0.45, 0.3, 0.55}, {0.3, 0.55, 0.25, 0.25}, {0.25, 0.25, 0.6, 0.1}, {0.6, 0.1, 0.75, 0.45}, {0.75, 0.45, 0.6, 0.9}},
}

// render draws example idx into out (length Side²).
func (d *Digits) render(idx int, out []float64) {
	r := rng.New(d.Seed ^ (0xa0761d6478bd642f * uint64(idx%d.N+1)))
	digit := r.Intn(10)

	side := float64(d.Side)
	// Random geometry: glyph occupies a scaled, shifted, slanted box.
	scale := side * r.Uniform(0.55, 0.85)
	cx := side*0.5 + side*r.Uniform(-0.08, 0.08)
	cy := side*0.5 + side*r.Uniform(-0.08, 0.08)
	slant := r.Uniform(-0.2, 0.2)
	pen := math.Max(0.9, side*r.Uniform(0.04, 0.08))

	for p := range out {
		out[p] = 0
	}
	for _, s := range glyphs[digit] {
		x0 := cx + scale*(s.x0-0.5+slant*(0.5-s.y0))
		y0 := cy + scale*(s.y0-0.5)
		x1 := cx + scale*(s.x1-0.5+slant*(0.5-s.y1))
		y1 := cy + scale*(s.y1-0.5)
		drawSegment(out, d.Side, x0, y0, x1, y1, pen)
	}
	if d.Noise > 0 {
		for p := range out {
			v := out[p] + r.Uniform(-d.Noise, d.Noise)
			out[p] = min(1, max(0, v))
		}
	}
}

// drawSegment rasterizes an anti-aliased stroke of half-width pen from
// (x0,y0) to (x1,y1) into the side×side image img, taking the max with the
// existing intensity.
func drawSegment(img []float64, side int, x0, y0, x1, y1, pen float64) {
	dx, dy := x1-x0, y1-y0
	len2 := dx*dx + dy*dy
	// Bounding box padded by the pen width.
	minX := int(math.Floor(math.Min(x0, x1) - pen - 1))
	maxX := int(math.Ceil(math.Max(x0, x1) + pen + 1))
	minY := int(math.Floor(math.Min(y0, y1) - pen - 1))
	maxY := int(math.Ceil(math.Max(y0, y1) + pen + 1))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= side {
		maxX = side - 1
	}
	if maxY >= side {
		maxY = side - 1
	}
	// A pixel farther from the stroke's line than the pen reaches is
	// farther still from the segment and writes nothing: reject it by the
	// squared cross product before paying for the projection and the
	// Hypot. The slack makes the test conservative under rounding, so
	// every pixel that is written goes through the exact arithmetic below.
	reach := pen + 0.5 + 1e-6
	far2 := reach * reach * len2 * (1 + 1e-9)
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			if cross := (px-x0)*dy - (py-y0)*dx; len2 > 0 && cross*cross > far2 {
				continue
			}
			// Distance from pixel center to the segment.
			t := 0.0
			if len2 > 0 {
				t = ((px-x0)*dx + (py-y0)*dy) / len2
				t = min(1, max(0, t))
			}
			qx, qy := x0+t*dx, y0+t*dy
			dist := math.Hypot(px-qx, py-qy)
			// Soft falloff over one pixel at the stroke edge.
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
