// Command datagen materializes the synthetic datasets (digit images,
// natural-image patches) to disk for inspection or external use.
//
// Formats: csv (one example per row), pgm (one P2 image per example, only
// sensible for small counts).
//
// Examples:
//
//	datagen -kind digits -side 16 -n 100 -format csv -out digits.csv
//	datagen -kind natural -side 12 -n 8 -format pgm -out patches/
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"phideep"
	"phideep/internal/data"
	"phideep/internal/tensor"
)

func main() {
	var (
		kind   = flag.String("kind", "digits", "digits | natural")
		side   = flag.Int("side", 16, "image/patch side length")
		n      = flag.Int("n", 100, "number of examples")
		seed   = flag.Uint64("seed", 1, "generator seed")
		format = flag.String("format", "csv", "csv | pgm")
		out    = flag.String("out", "", "output file (csv) or directory (pgm); default stdout/CWD")
		labels = flag.Bool("labels", false, "append the digit label as the last CSV column (digits only)")
	)
	flag.Parse()
	if err := run(*kind, *side, *n, *seed, *format, *out, *labels); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(kind string, side, n int, seed uint64, format, out string, labels bool) error {
	var (
		src    phideep.Source
		digits *data.Digits
	)
	if n < 0 {
		return fmt.Errorf("-n %d is negative", n)
	}
	switch kind {
	case "digits":
		if side < data.MinDigitsSide {
			return fmt.Errorf("digits: -side %d is below the minimum %d", side, data.MinDigitsSide)
		}
		digits = data.NewDigits(side, n, seed, 0.05)
		src = digits
	case "natural":
		if side < data.MinPatchSide {
			return fmt.Errorf("natural: -side %d is below the minimum %d", side, data.MinPatchSide)
		}
		src = data.NewNaturalPatches(side, n, seed)
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if labels && digits == nil {
		return fmt.Errorf("-labels is only meaningful with -kind digits")
	}

	m := tensor.NewMatrix(n, src.Dim())
	src.Chunk(0, n, m)

	switch format {
	case "csv":
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		defer bw.Flush()
		for i := 0; i < n; i++ {
			row := m.RowView(i)
			for j, v := range row {
				if j > 0 {
					fmt.Fprint(bw, ",")
				}
				fmt.Fprintf(bw, "%.6g", v)
			}
			if labels {
				fmt.Fprintf(bw, ",%d", digits.Label(i))
			}
			fmt.Fprintln(bw)
		}
		return nil

	case "pgm":
		dir := out
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			name := filepath.Join(dir, fmt.Sprintf("%s_%04d.pgm", kind, i))
			if err := writePGM(name, m.RowView(i), side); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d PGM files to %s\n", n, dir)
		return nil

	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// writePGM writes a side×side grayscale image (values in [0, 1]) as ASCII
// PGM.
func writePGM(name string, pixels []float64, side int) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "P2\n%d %d\n255\n", side, side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := pixels[y*side+x]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			if x > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%d", int(v*255+0.5))
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
