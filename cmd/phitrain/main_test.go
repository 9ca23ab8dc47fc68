package main

import (
	"os"
	"strings"
	"testing"
)

// runArgs invokes the tool's core with small workloads.
func runQuick(t *testing.T, model, dataKind string, sizes string, numeric bool) error {
	t.Helper()
	return run(model, dataKind, 8, 0, 8, sizes, 200, 20, 2, 0,
		0.5, 1e-4, 0.1, 0.05, "improved", "phi", 0, numeric, true, 1, "", options{})
}

// runQuick2 is runQuick with explicit options, for the flag-validation
// cases. A bad -fault-* combination must fail before any work is done.
func runQuick2(t *testing.T, opts options) error {
	t.Helper()
	return run("ae", "digits", 8, 0, 8, "", 200, 20, 1, 0,
		0.5, 1e-4, 0.1, 0.05, "improved", "phi", 0, true, true, 1, "", opts)
}

func TestValidFaultFlagsStillRun(t *testing.T) {
	// A legal fault configuration passes validation and the run completes
	// (the rate is tiny so retries almost surely absorb every fault).
	if err := runQuick2(t, options{faultRate: 0.001, faultSeed: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllModelKinds(t *testing.T) {
	for _, m := range []string{"ae", "rbm"} {
		if err := runQuick(t, m, "digits", "", true); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	for _, m := range []string{"stack", "dbn"} {
		if err := runQuick(t, m, "digits", "64,16,8", true); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	// convnet trains supervised: one-hot label chunks stage beside the images.
	if err := run("convnet", "digits", 8, 0, 8, "", 200, 20, 1, 0,
		0.5, 1e-4, 0.1, 0.05, "improved", "phi", 0, true, true, 1, "",
		options{filters1: 3, kernel1: 3, filters2: 4, kernel2: 3, pool: 2, classes: 10}); err != nil {
		t.Errorf("convnet: %v", err)
	}
}

func TestRunTimingOnly(t *testing.T) {
	if err := runQuick(t, "ae", "null", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunNaturalData(t *testing.T) {
	if err := runQuick(t, "ae", "natural", "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"bad model", runQuick(t, "bogus", "digits", "", true), "unknown model"},
		{"bad data", runQuick(t, "ae", "bogus", "", true), "unknown data"},
		{"bad sizes", run("stack", "digits", 8, 0, 8, "a,b", 100, 10, 1, 0, 0.5, 0, 0, 0, "improved", "phi", 0, true, true, 1, "", options{}), "bad -sizes"},
		{"bad level", run("ae", "digits", 8, 0, 8, "", 100, 10, 1, 0, 0.5, 0, 0, 0, "warp", "phi", 0, true, true, 1, "", options{}), "unknown level"},
		{"bad arch", run("ae", "digits", 8, 0, 8, "", 100, 10, 1, 0, 0.5, 0, 0, 0, "improved", "gpu", 0, true, true, 1, "", options{}), "unknown arch"},
		{"fault rate high", runQuick2(t, options{faultRate: 1.0}), "bad -fault-* flags"},
		{"fault rate negative", runQuick2(t, options{faultRate: -0.5}), "fault rate"},
		{"fault permanent", runQuick2(t, options{faultRate: 0.1, faultPermanent: 1.5}), "permanent fraction"},
		{"fault retries", runQuick2(t, options{faultRate: 0.1, faultRetries: -3}), "retry"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, c.err, c.want)
		}
	}
}

// TestRunRejectsSmallSide: a -side below what the data generator can
// render is an error from the run path, not a panic in the constructor.
func TestRunRejectsSmallSide(t *testing.T) {
	cases := []struct {
		data string
		side int
		want string
	}{
		{"digits", 4, "digits: -side 4 is below the minimum 8"},
		{"natural", 1, "natural: -side 1 is below the minimum 2"},
		{"natural", 0, "natural: -side 0 is below the minimum 2"},
	}
	for _, c := range cases {
		err := run("ae", c.data, c.side, 0, 8, "", 200, 20, 1, 0, 0.5, 0, 0, 0, "improved", "phi", 0, true, true, 1, "", options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-data %s -side %d: err = %v, want %q", c.data, c.side, err, c.want)
		}
	}
}

func TestPickHelpers(t *testing.T) {
	for _, name := range []string{"phi", "cpu1", "cpu4", "cpu8", "matlab"} {
		if a, err := pickArch(name); err != nil || a == nil {
			t.Errorf("pickArch(%q): %v", name, err)
		}
	}
	for _, name := range []string{"baseline", "openmp", "mkl", "improved"} {
		if _, err := pickLevel(name); err != nil {
			t.Errorf("pickLevel(%q): %v", name, err)
		}
	}
	sizes, err := parseSizes("10, 20,30", 0, 0)
	if err != nil || len(sizes) != 3 || sizes[2] != 30 {
		t.Errorf("parseSizes: %v %v", sizes, err)
	}
	sizes, err = parseSizes("", 7, 3)
	if err != nil || len(sizes) != 2 || sizes[0] != 7 || sizes[1] != 3 {
		t.Errorf("parseSizes default: %v %v", sizes, err)
	}
	// Mismatched visible/side for image data must fail.
	if err := run("ae", "digits", 8, 100, 8, "", 200, 20, 1, 0, 0.5, 0, 0, 0, "improved", "phi", 0, true, true, 1, "", options{}); err == nil {
		t.Error("visible != side^2 must fail for digits")
	}
}

func TestRunWritesTrace(t *testing.T) {
	traceFile := t.TempDir() + "/trace.json"
	if err := run("ae", "digits", 8, 0, 8, "", 200, 20, 1, 0,
		0.5, 1e-4, 0.1, 0.05, "improved", "phi", 0, true, true, 1, traceFile, options{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "gemm") || !strings.Contains(string(data), "copy-in") {
		t.Fatalf("trace missing expected events: %.120s", data)
	}
}

func TestRunVariantFlags(t *testing.T) {
	opts := options{momentum: 0.5, corruption: 0.1, tied: true, shuffle: true, adaptive: true}
	if err := run("ae", "digits", 8, 0, 8, "", 200, 20, 2, 0,
		0.5, 1e-4, 0.1, 0.05, "improved", "phi", 0, true, true, 1, "", opts); err != nil {
		t.Fatal(err)
	}
	gopts := options{gaussian: true, momentum: 0.3}
	if err := run("rbm", "natural", 8, 0, 8, "", 200, 20, 2, 0,
		0.01, 0, 0, 0, "improved", "phi", 0, true, true, 1, "", gopts); err != nil {
		t.Fatal(err)
	}
	if err := run("dbn", "digits", 8, 0, 8, "64,16", 200, 20, 2, 0,
		0.2, 0, 0, 0, "improved", "phi", 0, true, true, 1, "", gopts); err != nil {
		t.Fatal(err)
	}
}
