package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestDirectiveParsing pins the accepted //lint: directive grammar:
// lower-case analyzer name, optional justification, tolerant of space
// between the slashes and the keyword.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		comment      string
		name, reason string
		ok           bool
	}{
		{"//lint:deadexport (a) kept for an external caller", "deadexport", "(a) kept for an external caller", true},
		{"// lint:detrand host clock is display-only", "detrand", "host clock is display-only", true},
		{"//lint:detrand", "detrand", "", true},
		{"//lint:detrand   ", "detrand", "", true},
		{"//lint:CamelCase reason", "", "", false},
		{"// plain comment", "", "", false},
		{"//lintish:detrand x", "", "", false},
	}
	for _, tc := range cases {
		m := directiveRe.FindStringSubmatch(tc.comment)
		if (m != nil) != tc.ok {
			t.Errorf("%q: matched=%v, want %v", tc.comment, m != nil, tc.ok)
			continue
		}
		if m == nil {
			continue
		}
		// collectDirectives trims the reason; mirror that here.
		src := "package p\n\n" + tc.comment + "\nvar x int\n"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%q: parse: %v", tc.comment, err)
		}
		out := map[string][]directive{}
		collectDirectives(fset, f, out)
		ds := out["p.go"]
		if len(ds) != 1 {
			t.Errorf("%q: collected %d directives, want 1", tc.comment, len(ds))
			continue
		}
		if ds[0].name != tc.name || ds[0].reason != tc.reason {
			t.Errorf("%q: got (%q, %q), want (%q, %q)",
				tc.comment, ds[0].name, ds[0].reason, tc.name, tc.reason)
		}
	}
}

// TestLoadMultiPackage loads a fixture tree that spans two packages
// with an import edge between them and checks both come back
// type-checked, with their directives collected.
func TestLoadMultiPackage(t *testing.T) {
	pkgs, err := Load(".", []string{
		"./testdata/src/deadexport/lib",
		"./testdata/src/deadexport/user",
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("Load returned %d packages, want 2", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("%s: not type-checked", pkg.Path)
		}
		if len(pkg.Files) == 0 {
			t.Errorf("%s: no files parsed", pkg.Path)
		}
	}
	for _, want := range []string{
		"dreamsim/internal/lint/testdata/src/deadexport/lib",
		"dreamsim/internal/lint/testdata/src/deadexport/user",
	} {
		if !seen[want] {
			t.Errorf("Load did not return %s (got %v)", want, seen)
		}
	}
}

// TestRunDeterministicOrder runs the full suite twice over the same
// fixture tree and checks the findings come back identical and sorted
// by (file, line, column, analyzer) — the order CI logs and the
// fixture harness both rely on.
func TestRunDeterministicOrder(t *testing.T) {
	pkgs, err := Load(".", []string{
		"./testdata/src/detrand/sim",
		"./testdata/src/directive/d",
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	first := Run(pkgs, Analyzers())
	if len(first) == 0 {
		t.Fatal("Run found nothing; the fixtures should produce findings")
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	}) {
		t.Error("Run output is not sorted by position")
	}
	second := Run(pkgs, Analyzers())
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Run is not deterministic:\nfirst:  %v\nsecond: %v", first, second)
	}
}

// TestExceptionsInventory checks that every //lint: directive of a
// loaded tree is reported, in position order, with its justification:
// also a bare one and one that names no analyzer, which Run reports
// as findings but the inventory still lists. The package's directives
// are kept per file in a map, which a small map may yield in order by
// chance, so the inventory is taken a hundred times and each must list
// the files in name order.
func TestExceptionsInventory(t *testing.T) {
	pkgs, err := Load(".", []string{"./testdata/src/directive/d"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := []string{
		`d.go:16 detrand ""`,
		`d.go:19 bogus "this analyzer does not exist"`,
		`d.go:27 detrand "a duration is a number, not a reading of the host clock"`,
		`e.go:9 detrand "a second file of exceptions for the inventory's order"`,
	}
	for range 100 {
		var got []string
		for _, ex := range Exceptions(pkgs) {
			got = append(got, fmt.Sprintf("%s:%d %s %q", filepath.Base(ex.Pos.Filename), ex.Pos.Line, ex.Name, ex.Reason))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Exceptions:\n got  %q\n want %q", got, want)
		}
	}
}
