// Package framework is a self-contained reimplementation of the subset of
// golang.org/x/tools/go/analysis that the simlint suite needs: the
// Analyzer/Pass/Diagnostic vocabulary, a module-aware source loader, an
// analysistest-style fixture runner, and `//simlint:` directive handling.
//
// The build environment for this repository is offline, so the canonical
// x/tools module cannot be added to go.mod; everything here is built on the
// standard library only (go/ast, go/parser, go/types, and `go list` for
// package metadata). The API mirrors x/tools deliberately: if the
// dependency ever becomes available, each analyzer ports by changing one
// import path.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer describes one static check. Name appears in diagnostics and in
// `//simlint:allow <name>` suppression directives; Doc is the one-paragraph
// contract shown by `simlint -help`. Grammar, when non-empty, lists the
// `//simlint:` annotation forms the analyzer consumes, one per line, for
// `simlint -rules`.
type Analyzer struct {
	Name    string
	Doc     string
	Grammar string
	Run     func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work. Files holds the parsed
// syntax, TypesInfo the full type information for every expression in them.
// Prog is the shared whole-program view (call graph, hotpath reachability,
// function annotations) spanning every package of the Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path being analyzed (test variants share the base path)
	TypesInfo *types.Info
	Prog      *Program

	diags *[]Diagnostic
	funcs []*FuncInfo // Functions() cache
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// File reports the file name containing pos.
func (p *Pass) File(pos token.Pos) string { return p.Fset.Position(pos).Filename }

// NewPass builds a standalone Pass for one (analyzer, package) pair,
// appending findings to *diags. Run uses an internal equivalent; this
// entry point exists for callers that need per-analyzer control — the
// fixture runner's single-analyzer mode and `simlint -bench`, which
// times each analyzer separately.
func NewPass(a *Analyzer, pkg *Package, prog *Program, diags *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		PkgPath:   pkg.PkgPath,
		TypesInfo: pkg.TypesInfo,
		Prog:      prog,
		diags:     diags,
	}
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position. Suppression directives are already
// applied (see suppress.go): explained `//simlint:allow` lines remove their
// diagnostic, unexplained or unused ones surface as diagnostics themselves.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := run(NewProgram(pkgs), analyzers)
	return diags, err
}

// AnalyzerTiming is one analyzer's wall-clock cost across every analyzed
// package in a RunTimed call. Shared lazily-built state that prog does not
// already hold (the points-to solution, the typestate summaries) is
// attributed to the first analyzer that forces it.
type AnalyzerTiming struct {
	Analyzer string
	Elapsed  time.Duration
}

// RunTimed is Run over prog's packages plus a per-analyzer timing
// breakdown, in the order the analyzers were given. It backs
// `simlint -bench`, which builds prog itself so it can time the shared
// points-to solve on its own line before any analyzer runs.
func RunTimed(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	return run(prog, analyzers)
}

func run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	pkgs := prog.Pkgs
	elapsed := make(map[string]time.Duration, len(analyzers))
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
				diags:     &diags,
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		all = append(all, applySuppressions(pkg, diags)...)
	}
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Analyzer: a.Name, Elapsed: elapsed[a.Name]})
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		// Analyzer before column so the order matches the -json contract
		// (file/line/analyzer): two analyzers firing on one line sort
		// stably by name regardless of which sub-expression they anchor to.
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return all, timings, nil
}
