package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: fixture packages
// under testdata/src/<case> carry `// want` comments holding a regex
// (backtick- or double-quote-delimited) that must match a diagnostic
// reported on that line. `// want+N` shifts the expected line by N,
// which lets a comment-only line (e.g. a //lint: directive, which
// cannot share its line with another comment) carry an expectation.
var wantRe = regexp.MustCompile("//\\s*want([+-][0-9]+)?\\s+(`[^`]*`|\"[^\"]*\")")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"detrand", []*Analyzer{DetRand}},
		{"maporder", []*Analyzer{MapOrder}},
		{"metering", []*Analyzer{Metering}},
		{"deadexport", []*Analyzer{DeadExport}},
		{"directive", Analyzers()},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			root := filepath.Join("testdata", "src", tc.fixture)
			patterns, files := fixtureLayout(t, root)
			pkgs, err := Load(".", patterns)
			if err != nil {
				t.Fatalf("Load(%v): %v", patterns, err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("Load(%v) matched no packages", patterns)
			}
			wants := parseWants(t, files)
			for _, d := range Run(pkgs, tc.analyzers) {
				if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want %s",
						w.file, w.line, w.raw)
				}
			}
		})
	}
}

// fixtureLayout walks one fixture root and returns go list patterns
// (one per package directory) and every fixture .go file.
func fixtureLayout(t *testing.T, root string) (patterns, files []string) {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		files = append(files, abs)
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			patterns = append(patterns, "./"+filepath.ToSlash(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if len(patterns) == 0 {
		t.Fatalf("no fixture packages under %s", root)
	}
	return patterns, files
}

// parseWants extracts the expectations from the fixture sources.
func parseWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				target := i + 1
				if m[1] != "" {
					delta, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", file, i+1, m[1])
					}
					target += delta
				}
				pattern := m[2][1 : len(m[2])-1] // strip delimiters
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, pattern, err)
				}
				wants = append(wants, &expectation{
					file: file,
					line: target,
					re:   re,
					raw:  m[2],
				})
			}
		}
	}
	return wants
}

// claim marks the first unmatched expectation covering (file, line)
// whose regexp matches message; it reports whether one was found.
func claim(wants []*expectation, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
