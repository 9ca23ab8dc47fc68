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

// MinDigitsSide is the smallest side NewDigits renders strokes at.
const MinDigitsSide = 8

// NewDigits returns a digit source with dim = side² pixels. noise is the
// additive uniform noise amplitude (0.05 is a good default). It panics if
// side < MinDigitsSide.
func NewDigits(side, n int, seed uint64, noise float64) *Digits {
	if side < MinDigitsSide {
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
		r.AddUniform(out, -d.Noise, d.Noise)
		for p, v := range out {
			out[p] = min(1, max(0, v))
		}
	}
}

// drawSegment rasterizes an anti-aliased stroke of half-width pen from
// (x0,y0) to (x1,y1) into the side×side image img, taking the max with the
// existing intensity.
//
// A pixel's value is 1 − (dist − pen + 0.5) clamped to [0, 1], where dist
// is the distance from its centre to the segment: the projection onto the
// segment, clamped to its ends, and a Hypot. Only the one-pixel falloff
// ring pays for that arithmetic. Each row scans just the span where the
// stroke can reach, and each pixel there is classified by its squared
// distance to the segment (the squared cross product against len2 beside
// it, the squared endpoint distance past its ends) with a slack far above
// either computation's rounding. A pixel clearly beyond pen+0.5 would get
// v ≤ 0 and writes nothing; one clearly inside pen−0.5 would get v ≥ 1,
// clamped to exactly 1, so it writes 1. Every other pixel runs the exact
// arithmetic in its usual operation order, so the image is bit for bit
// what evaluating every pixel of the padded bounding box gives.
func drawSegment(img []float64, side int, x0, y0, x1, y1, pen float64) {
	dx, dy := x1-x0, y1-y0
	len2 := dx*dx + dy*dy
	// Bounding box padded by the pen width.
	minX := max(int(math.Floor(math.Min(x0, x1)-pen-1)), 0)
	maxX := min(int(math.Ceil(math.Max(x0, x1)+pen+1)), side-1)
	minY := max(int(math.Floor(math.Min(y0, y1)-pen-1)), 0)
	maxY := min(int(math.Ceil(math.Max(y0, y1)+pen+1)), side-1)

	// Both computations err by a few ulps of the largest magnitude in play;
	// the slack is about 1e7 of them.
	mag := max(math.Abs(x0), math.Abs(y0), math.Abs(x1), math.Abs(y1), math.Abs(pen), float64(side)) + 1
	slack := 1e-9 * mag
	outer, inner := pen+0.5+slack, pen-0.5-slack
	if !(outer > 0) {
		return // v ≤ 0 everywhere
	}
	// The classification's segment. One shorter than 1e-6 is classified as
	// a dot at (x0,y0) with both radii widened by its length, so a
	// vanishing len2 never scales the cross-product test; the exact
	// arithmetic still sees the real segment.
	cdx, cdy, clen2 := dx, dy, len2
	dot := len2 < 1e-12
	if dot {
		l := math.Sqrt(len2)
		outer, inner = outer+l, inner-l
		cdx, cdy, clen2 = 0, 0, 0
	}
	out2, in2 := outer*outer, -1.0 // in2 < 0: no sure core
	if inner > 0 {
		in2 = inner * inner
	}
	outL, inL := out2*clen2, in2*clen2
	// Two bands bound each row's scan: the pixels within outer of the
	// stroke's line, and those whose projection falls within outer of the
	// segment's ends. Together they hug the capsule but for its corners.
	l := math.Sqrt(clen2)
	beside := newBand(cdy, -cdx, -outer*l, outer*l, l, mag)
	along := newBand(cdx, cdy, -outer*l, clen2+outer*l, l, mag)
	for y := minY; y <= maxY; y++ {
		py := float64(y) + 0.5
		ey := py - y0
		xa, xb := beside.clip(minX, maxX, x0, ey)
		xa, xb = along.clip(xa, xb, x0, ey)
		row := img[y*side : (y+1)*side]
		for x := xa; x <= xb; x++ {
			if !(row[x] < 1) {
				continue // v ≤ 1 cannot exceed it
			}
			px := float64(x) + 0.5
			ex := px - x0
			// t is the exact arithmetic's projection clamped to [0, 1].
			// Unless the stroke is classified as a dot, proj is its
			// numerator bit for bit, so proj's sign and its size against
			// len2 say which way the clamp goes without dividing.
			var t float64
			if proj := ex*cdx + ey*cdy; proj <= 0 { // nearest (x0,y0)
				if d2 := ex*ex + ey*ey; d2 > out2 {
					continue
				} else if d2 < in2 {
					row[x] = 1
					continue
				}
				if dot && len2 > 0 {
					t = min(1, max(0, (ex*dx+ey*dy)/len2))
				}
			} else if proj >= clen2 { // nearest (x1,y1)
				fx, fy := px-x1, py-y1
				if d2 := fx*fx + fy*fy; d2 > out2 {
					continue
				} else if d2 < in2 {
					row[x] = 1
					continue
				}
				t = 1
			} else { // beside the segment: dist² = cross²/len2
				if c := ex*cdy - ey*cdx; c*c > outL {
					continue
				} else if c*c < inL {
					row[x] = 1
					continue
				}
				t = proj / len2
			}
			// The falloff ring: distance from the pixel centre to the
			// segment, and a soft falloff over one pixel at the stroke edge.
			qx, qy := x0+t*dx, y0+t*dy
			dist := math.Hypot(px-qx, py-qy)
			v := 1 - (dist - pen + 0.5)
			if v <= 0 {
				continue
			}
			if v > 1 {
				v = 1
			}
			if v > row[x] {
				row[x] = v
			}
		}
	}
}

// band is the pixels of a row whose centre px satisfies
// lo ≤ a·(px−x0) + b·(py−y0) ≤ hi, that is px − x0 ∈ [p + m·ey, q + m·ey]
// for ey = py−y0, widened by a pixel and by far more than the rounding of
// those sums at magnitude mag. A band within 1e-3 of parallel to the rows
// (|a| ≤ 1e-3·l, l the stroke's length) bounds nothing: it would be wider
// than the bounding box, and its |m| > 1e3 would magnify rounding.
type band struct {
	on      bool
	m, p, q float64
}

func newBand(a, b, lo, hi, l, mag float64) band {
	if !(math.Abs(a) > 1e-3*l) {
		return band{}
	}
	m, p, q := -b/a, lo/a, hi/a
	if a < 0 {
		p, q = q, p
	}
	pad := 1 + 1e-9*(3*mag*(1+math.Abs(m))+math.Abs(p)+math.Abs(q))
	return band{on: true, m: m, p: p - pad, q: q + pad}
}

// clip narrows the pixel range [xa, xb] of the row at ey, xa ≥ 0, to the
// band; it returns an empty range if the band misses it.
func (bd band) clip(xa, xb int, x0, ey float64) (int, int) {
	if !bd.on {
		return xa, xb
	}
	c := x0 + ey*bd.m
	if lo := c + bd.p; lo > float64(xa) {
		if lo > float64(xb) {
			return 1, 0
		}
		xa = int(lo)
	}
	if hi := c + bd.q; hi < float64(xb) {
		if hi < float64(xa) {
			return 1, 0
		}
		xb = int(hi)
	}
	return xa, xb
}
