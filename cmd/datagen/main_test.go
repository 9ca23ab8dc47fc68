package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCSVWithLabels(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "digits.csv")
	if err := run("digits", 8, 5, 1, "csv", out, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines", len(lines))
	}
	// 64 pixels + 1 label column.
	if cols := strings.Count(lines[0], ",") + 1; cols != 65 {
		t.Fatalf("got %d columns", cols)
	}
	label := lines[0][strings.LastIndex(lines[0], ",")+1:]
	if len(label) != 1 || label[0] < '0' || label[0] > '9' {
		t.Fatalf("bad label %q", label)
	}
}

func TestRunPGM(t *testing.T) {
	dir := t.TempDir()
	if err := run("natural", 8, 3, 2, "pgm", dir, false); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "natural_*.pgm"))
	if err != nil || len(files) != 3 {
		t.Fatalf("got %d pgm files (%v)", len(files), err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "P2\n8 8\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:20])
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("bogus", 8, 1, 1, "csv", "", false); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("bad kind: %v", err)
	}
	if err := run("digits", 8, 1, 1, "bogus", "", false); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("bad format: %v", err)
	}
	if err := run("natural", 8, 1, 1, "csv", filepath.Join(t.TempDir(), "x.csv"), true); err == nil || !strings.Contains(err.Error(), "labels") {
		t.Errorf("labels on natural: %v", err)
	}
}

// TestRunRejectsBadSizes: a side below what the generator can render, or a
// negative count, is an error before any generator is built, not a panic.
func TestRunRejectsBadSizes(t *testing.T) {
	cases := []struct {
		kind    string
		side, n int
		want    string
	}{
		{"digits", 4, 1, "-side 4 is below the minimum 8"},
		{"digits", 0, 1, "-side 0 is below the minimum 8"},
		{"natural", 0, 1, "-side 0 is below the minimum 2"},
		{"natural", -3, 1, "-side -3 is below the minimum 2"},
		{"digits", 8, -1, "-n -1 is negative"},
	}
	for _, c := range cases {
		err := run(c.kind, c.side, c.n, 1, "csv", filepath.Join(t.TempDir(), "x.csv"), false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s -side %d -n %d: err = %v, want %q", c.kind, c.side, c.n, err, c.want)
		}
	}
}

func TestWritePGMClampsValues(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "t.pgm")
	if err := writePGM(name, []float64{-1, 0, 0.5, 2}, 2); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(name)
	s := strings.TrimSpace(string(data))
	if !strings.HasSuffix(s, "0 0\n128 255") && !strings.Contains(s, "255") {
		t.Fatalf("clamping wrong:\n%s", s)
	}
}
