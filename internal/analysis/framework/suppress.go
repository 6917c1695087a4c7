package framework

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive is one `//simlint:<verb> <args>` comment. The grammar
// (documented in DESIGN.md "Determinism rules" / "Ownership rules"):
//
//	//simlint:allow <analyzer> -- <reason>   suppress one finding, with an audit trail
//	//simlint:rank-handoff                   mark the audited AMPI thread handoff
//	//simlint:hotpath                        doc comment: hot-path root for the call graph
//	//simlint:acquire                        doc comment: function returns pooled/slab state
//	//simlint:release                        doc comment: function releases pooled/slab state
//	//simlint:proto <protocol> <role> ...    doc/field/const comment: binds the declaration to
//	                                         a protoflow typestate protocol (credit, flight,
//	                                         event, retry) — the full grammar is printed by
//	                                         `simlint -rules` and documented in DESIGN.md §6
//
// An allow directive covers findings of the named analyzer on its own line
// (trailing comment) or on the line immediately below (comment above the
// offending statement). A reason after " -- " is mandatory: a bare allow is
// itself reported, so the repository can never accumulate unexplained
// suppressions. The hotpath/acquire/release verbs annotate function
// declarations and are consumed through Program (callgraph.go), not here.
type Directive struct {
	Pos  token.Position
	Verb string // "allow", "rank-handoff", ...
	Args string // raw text after the verb
}

const directivePrefix = "//simlint:"

// Directives extracts every simlint directive from a file.
func Directives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, args, _ := strings.Cut(rest, " ")
			out = append(out, Directive{
				Pos:  fset.Position(c.Pos()),
				Verb: verb,
				Args: strings.TrimSpace(args),
			})
		}
	}
	return out
}

// Suppression is one audited exception directive — an `//simlint:allow` or
// a `//simlint:proto` protocol binding — as listed by `simlint -audit`.
type Suppression struct {
	Pos      token.Position
	Verb     string // "allow" or "proto"
	Analyzer string
	Reason   string
}

// Suppressions lists every allow directive and every protocol binding of
// the given packages in position order, for the driver's audit mode.
// Malformed directives (no reason) are included with an empty Reason — the
// normal lint run already rejects bare allows, and the audit itself
// rejects bare protocol bindings.
func Suppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range Directives(pkg.Fset, f) {
				switch d.Verb {
				case "allow":
					head, reason, _ := strings.Cut(d.Args, "--")
					out = append(out, Suppression{
						Pos:      d.Pos,
						Verb:     d.Verb,
						Analyzer: strings.TrimSpace(head),
						Reason:   strings.TrimSpace(reason),
					})
				case "proto":
					// Protocol typestate bindings: each names the declaration's
					// role in a protoflow machine. The binding itself is the
					// audit record — the args name protocol and role — so a
					// bare //simlint:proto is the only malformed (empty-reason)
					// form.
					out = append(out, Suppression{
						Pos:      d.Pos,
						Verb:     d.Verb,
						Analyzer: "protoflow",
						Reason:   d.Args,
					})
				}
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

// applySuppressions filters diags through the package's allow directives.
// Every malformed or unused allow becomes a diagnostic of its own, so the
// driver exits non-zero on unexplained suppressions.
func applySuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	type allow struct {
		d      Directive
		name   string
		reason string
		used   bool
		bad    bool
	}
	var allows []*allow
	for _, f := range pkg.Syntax {
		for _, d := range Directives(pkg.Fset, f) {
			if d.Verb != "allow" {
				continue
			}
			a := &allow{d: d}
			head, reason, ok := strings.Cut(d.Args, "--")
			a.name = strings.TrimSpace(head)
			a.reason = strings.TrimSpace(reason)
			a.bad = a.name == "" || !ok || a.reason == ""
			allows = append(allows, a)
		}
	}

	var out []Diagnostic
	for _, diag := range diags {
		suppressed := false
		for _, a := range allows {
			if a.bad || a.name != diag.Analyzer || a.d.Pos.Filename != diag.Pos.Filename {
				continue
			}
			if a.d.Pos.Line == diag.Pos.Line || a.d.Pos.Line == diag.Pos.Line-1 {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	for _, a := range allows {
		switch {
		case a.bad:
			out = append(out, Diagnostic{
				Analyzer: "simlint",
				Pos:      a.d.Pos,
				Message:  "unexplained suppression: want //simlint:allow <analyzer> -- <reason>",
			})
		case !a.used:
			out = append(out, Diagnostic{
				Analyzer: "simlint",
				Pos:      a.d.Pos,
				Message:  "unused //simlint:allow " + a.name + " (nothing suppressed here)",
			})
		}
	}
	return out
}
