// The whole-program side of the suite. A Program merges every loaded
// package over the shared token.FileSet, so an analyzer that needs the
// whole module (deadexport) sees every package at once, and its
// findings are suppressed by the directives of whichever package owns
// the site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A Program is every loaded package merged into one analysis unit.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	fileOf map[string]*filePkg // filename -> owning package + AST
}

type filePkg struct {
	pkg  *Package
	file *ast.File
}

// newProgram indexes the loaded packages' files by name.
func newProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, fileOf: map[string]*filePkg{}}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			prog.fileOf[pkg.Fset.Position(f.FileStart).Filename] = &filePkg{pkg: pkg, file: f}
		}
	}
	return prog
}

// objKey identifies a declaration across type-checker instances:
// package path, receiver type name (methods only), object name. A
// package checked from source and its importers, which see it through
// export data, hold different objects for the same declaration.
func objKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return obj.Name()
	}
	recv := ""
	if f, ok := obj.(*types.Func); ok {
		if r := f.Type().(*types.Signature).Recv(); r != nil {
			if n := namedOf(r.Type()); n != nil {
				recv = n.Obj().Name()
			}
		}
	}
	return pkg.Path() + "." + recv + "." + obj.Name()
}

// suppressedAt is program-wide suppression: a //lint:NAME directive
// on the line, the line above, or in the enclosing function's doc
// comment — in whichever package owns the position.
func (prog *Program) suppressedAt(analyzer string, pos token.Pos) bool {
	position := prog.Fset.Position(pos)
	fp := prog.fileOf[position.Filename]
	if fp == nil {
		return false
	}
	var enclosing *ast.FuncDecl
	for _, decl := range fp.file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			enclosing = fd
		}
	}
	first, last := docLines(prog.Fset, enclosing)
	return cover(fp.pkg.directives[position.Filename], analyzer, position.Line, first, last)
}

// A ProgramPass provides one whole-program analyzer with the Program.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program

	diags *[]Diagnostic
}

// Reportf records a finding unless a matching //lint: directive in
// the owning package covers the site.
func (pp *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	if pp.Program.suppressedAt(pp.Analyzer.Name, pos) {
		return
	}
	*pp.diags = append(*pp.diags, Diagnostic{
		Pos:      pp.Program.Fset.Position(pos),
		Analyzer: pp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
