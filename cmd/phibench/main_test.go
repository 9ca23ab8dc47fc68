package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phideep/internal/experiments"
)

// updateTables rewrites testdata/<id>.csv from this build.
var updateTables = flag.Bool("update", false, "rewrite testdata/<id>.csv from this build")

// TestRegistryIntegrity: ids unique and well formed, every runner wired.
func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || e.desc == "" {
			t.Errorf("entry %+v incomplete", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.id)
		}
	}
	// Every exhibit of the paper's evaluation must be present.
	for _, want := range []string{
		"fig7-ae", "fig7-rbm", "fig8-ae", "fig8-rbm", "fig9-ae", "fig9-rbm",
		"fig10", "table1", "fig5-overlap",
	} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

// TestEveryRunnerProducesAWellFormedTable runs each registered experiment
// once, validates the table structure and byte-compares its CSV with the
// committed testdata/<id>.csv. The simulated tables are exactly
// deterministic (the same bytes under -tags noasm and GODEBUG=cpu.fma=off),
// so any change to a cost-model constant or a sweep shows up here; run
// with -update to rewrite the files when that change is intended. This
// doubles as an end-to-end smoke test of the whole harness.
func TestEveryRunnerProducesAWellFormedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	for _, e := range registry {
		tab := e.run()
		if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
			t.Errorf("%s: malformed table %+v", e.id, tab)
			continue
		}
		for i, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: row %d has %d cells for %d columns", e.id, i, len(row), len(tab.Columns))
			}
		}
		var got bytes.Buffer
		tab.WriteCSV(&got)
		path := filepath.Join("testdata", e.id+".csv")
		if *updateTables {
			if err := writeCSVFile("testdata", e.id, tab); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (run with -update to create it)", e.id, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: table differs from %s (run with -update if the change is intended)\ngot:\n%s", e.id, path, got.Bytes())
		}
	}
}

func TestWriteCSVFile(t *testing.T) {
	dir := t.TempDir()
	out := registryTable()
	if err := writeCSVFile(dir, "x", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "a,b") {
		t.Fatalf("csv content: %s", data)
	}
}

// registryTable builds a tiny table without running an experiment.
func registryTable() *experiments.Table {
	tb := &experiments.Table{Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	return tb
}
