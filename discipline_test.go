package phideep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The repo's rules that review used to enforce alone, checked on the
// syntax trees of the source: the standard library's parser, no type
// information, so the whole check runs in milliseconds.

// sleepFreeDirs hold the concurrent protocols (the micro-batcher, the
// fork/join pool, the feed and its loader). Their non-test code waits on
// channels, condition variables and timers, never on a sleep: a sleep
// there is a hidden latency or a race papered over.
var sleepFreeDirs = []string{"internal/serve", "internal/parallel", "internal/feed"}

// TestNoSleepInConcurrentPackages fails on any reference to time.Sleep
// (a call or a function value) in the non-test files of sleepFreeDirs.
func TestNoSleepInConcurrentPackages(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range sleepFreeDirs {
		for _, f := range parseNonTestFiles(t, fset, dir) {
			timeName := importName(f, "time")
			switch timeName {
			case "", "_":
				continue
			case ".":
				t.Errorf("%s: dot import of time would hide a Sleep call", fset.Position(f.Package))
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Sleep" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
					t.Errorf("%s: time.Sleep in a sleep-free package", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}

// parseNonTestFiles parses every non-test .go file directly in dir into
// fset.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		t.Fatalf("no Go source files in %s", dir)
	}
	return out
}

// importName returns the name under which f refers to the package at
// path: its last path element, or the import's own name ("_" and "."
// included). It returns "" when f does not import the package.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return filepath.Base(path)
	}
	return ""
}
