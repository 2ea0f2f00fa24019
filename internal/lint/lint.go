// Package lint is DReAMSim's static-analysis suite: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis
// framework plus the project-specific analyzers for the rules no test
// can observe: simulation code reads no host clock, ambient randomness
// or host environment, and the program ships no dead exports (see
// DESIGN.md "Static analysis & invariants").
//
// The framework intentionally copies the x/tools shape — Analyzer,
// Pass, Diagnostic — so the analyzers can be ported to a real
// multichecker wholesale if the dependency ever becomes available;
// only the package loader (load.go) is home-grown: it drives
// `go list -export -deps -json` and type-checks the target packages
// from source, resolving imports from the build cache's export data.
//
// Findings are suppressed site-by-site with justification directives:
//
//	//lint:NAME why this site is exempt
//
// placed on the offending line, the line above it, or in the doc
// comment of the enclosing function (which exempts the whole
// function). A directive without a justification text is itself
// reported — exceptions must say why.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description shown by `dreamlint -list`.
	Doc string
	// Run performs the check over one package. Exactly one of Run
	// and RunProgram is set.
	Run func(*Pass) error
	// RunProgram performs the check once over the whole loaded
	// program (every package merged over the shared FileSet), for an
	// analyzer whose verdict on one package depends on the others.
	RunProgram func(*ProgramPass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg    *Package
	diags  *[]Diagnostic
	funcIx map[*ast.File][]*ast.FuncDecl
}

// A Diagnostic is one finding, addressed by source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// directive is one parsed //lint:NAME justification comment.
type directive struct {
	name   string
	reason string
	pos    token.Position
	used   bool // it covered at least one finding
}

// cover marks every directive of analyzer among dirs that covers a
// finding on line — on that line, on the line above, or within the
// doc comment (lines docFirst to docLast) of the enclosing function —
// and reports whether there was one.
func cover(dirs []directive, analyzer string, line, docFirst, docLast int) bool {
	found := false
	for i := range dirs {
		d := &dirs[i]
		if d.name == analyzer && (d.pos.Line == line || d.pos.Line == line-1 ||
			docFirst <= d.pos.Line && d.pos.Line <= docLast) {
			d.used = true
			found = true
		}
	}
	return found
}

// docLines returns the line span of fd's doc comment, or (0, -1).
func docLines(fset *token.FileSet, fd *ast.FuncDecl) (first, last int) {
	if fd == nil || fd.Doc == nil {
		return 0, -1
	}
	return fset.Position(fd.Doc.Pos()).Line, fset.Position(fd.Doc.End()).Line
}

var directiveRe = regexp.MustCompile(`^//\s*lint:([a-z]+)\b[ \t]*(.*)$`)

// Reportf records a finding at pos unless a matching //lint:NAME
// directive covers the site.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(pos, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a directive for this analyzer covers the
// given position: same line, the line immediately above, or the doc
// comment of the enclosing function declaration.
func (p *Pass) suppressed(pos token.Pos, position token.Position) bool {
	first, last := docLines(p.Fset, p.enclosingFunc(pos))
	return cover(p.pkg.directives[position.Filename], p.Analyzer.Name, position.Line, first, last)
}

// enclosingFunc returns the function declaration containing pos, if
// any.
func (p *Pass) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	if p.funcIx == nil {
		p.funcIx = make(map[*ast.File][]*ast.FuncDecl)
		for _, f := range p.Files {
			var fds []*ast.FuncDecl
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fds = append(fds, fd)
				}
			}
			p.funcIx[f] = fds
		}
	}
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			for _, fd := range p.funcIx[f] {
				if fd.Pos() <= pos && pos < fd.End() {
					return fd
				}
			}
		}
	}
	return nil
}

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Info.ObjectOf(id)
}

// Run applies each analyzer to each package and returns the findings
// sorted by position. Directives that name no analyzer of the suite,
// carry an empty justification, or suppress no finding are reported
// under the pseudo-analyzer "directive", so that every exception in
// the tree carries its why and still excuses something.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	knownNames := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		knownNames[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.directives {
			for i := range file {
				file[i].used = false // marks of an earlier Run
			}
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pkg:      pkg,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: pkg.Path},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = newProgram(pkgs)
		}
		pp := &ProgramPass{Analyzer: a, Program: prog, diags: &diags}
		if err := a.RunProgram(pp); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.directives {
			for _, d := range file {
				msg := ""
				switch {
				case !knownNames[d.name]:
					msg = fmt.Sprintf("unknown analyzer %q in //lint: directive", d.name)
				case strings.TrimSpace(d.reason) == "":
					msg = fmt.Sprintf("//lint:%s directive needs a justification", d.name)
				case !d.used:
					msg = fmt.Sprintf("//lint:%s directive suppresses no finding", d.name)
				default:
					continue
				}
				diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "directive", Message: msg})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	})
	return diags
}

// Analyzers returns the full DReAMSim suite in stable order: the
// single-package analyzer detrand, then the whole-program analyzer
// deadexport.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, DeadExport}
}

// An Exception is one //lint:NAME justification directive — the
// reviewable inventory of everything the suite is told to accept.
type Exception struct {
	Pos    token.Position
	Name   string
	Reason string
}

// Exceptions returns every //lint: directive in the loaded packages,
// sorted by position.
func Exceptions(pkgs []*Package) []Exception {
	var out []Exception
	for _, pkg := range pkgs {
		for _, file := range pkg.directives {
			for _, d := range file {
				out = append(out, Exception{Pos: d.pos, Name: d.name, Reason: d.reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
