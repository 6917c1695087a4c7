// Command simlint runs the repository's determinism-and-kernel-discipline
// analyzers (internal/analysis/simlint) over the module and prints any
// diagnostics in file:line:col order, exiting nonzero if there are any.
//
// Usage:
//
//	go run ./cmd/simlint [-json] [-audit] [-rules] [-bench [-budget file]] [packages]
//
// With no arguments it analyzes ./.... Suppressions use
// `//simlint:allow <analyzer> -- <reason>` on (or one line above) the
// flagged line; a suppression without a reason, or one matching no
// diagnostic, is itself reported, so the lint run stays self-auditing.
//
// -json emits findings as a JSON array of {analyzer, file, line, col,
// message} objects (an empty array when clean) for CI and editor tooling.
//
// -audit skips analysis and instead lists every `//simlint:allow`
// suppression in the analyzed packages with its justification, so the
// complete audit trail of accepted exceptions is one command away. With
// -json the audit is emitted as {analyzer, file, line, col, reason}
// objects. -audit exits nonzero only if a suppression lacks a reason.
//
// -rules skips analysis and prints every registered analyzer with its
// one-line contract and, where the analyzer consumes `//simlint:`
// annotations, the annotation grammar — the complete rule book in one
// command. The output shape is golden-pinned like -json.
//
// -bench skips the findings report and instead times the shared points-to
// solve and then each analyzer over the loaded packages, one line each,
// checking load and analysis wall-clock against the
// checked-in budget (cmd/simlint/budget.json, overridable with -budget).
// It exits nonzero when a budget line is exceeded, so `make lint-bench`
// gates analyzer performance regressions.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"charmgo/internal/analysis/framework"
	"charmgo/internal/analysis/simlint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings (or the -audit list) as JSON")
	audit := flag.Bool("audit", false, "list every //simlint:allow suppression with its justification")
	rules := flag.Bool("rules", false, "print every analyzer with its contract and annotation grammar")
	bench := flag.Bool("bench", false, "time each analyzer and enforce the checked-in budget")
	budgetPath := flag.String("budget", "", "budget file for -bench (default cmd/simlint/budget.json)")
	flag.Parse()

	if *rules {
		os.Stdout.Write(renderRules(simlint.Analyzers()))
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := framework.NewLoader(".")
	loadStart := time.Now()
	pkgs, err := loader.LoadModule(patterns...)
	loadTime := time.Since(loadStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *audit {
		os.Exit(runAudit(pkgs, *jsonOut))
	}
	if *bench {
		os.Exit(runBench(pkgs, loadTime, *budgetPath))
	}
	diags, err := framework.Run(pkgs, simlint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		emitJSON(renderDiagsJSON(diags))
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}

// runAudit lists every suppression and returns the process exit code:
// nonzero when any allow lacks a justification.
func runAudit(pkgs []*framework.Package, jsonOut bool) int {
	sups := framework.Suppressions(pkgs)
	bare := 0
	for _, s := range sups {
		if s.Reason == "" {
			bare++
		}
	}
	if jsonOut {
		emitJSON(renderAuditJSON(sups))
	} else {
		for _, s := range sups {
			reason := s.Reason
			if reason == "" {
				reason = "(no justification — rejected by the audit)"
			}
			fmt.Printf("%s:%d:%d: %s %s -- %s\n",
				s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Verb, s.Analyzer, reason)
		}
		fmt.Fprintf(os.Stderr, "simlint: %d suppression(s)\n", len(sups))
	}
	if bare > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d suppression(s) without a justification\n", bare)
		return 1
	}
	return 0
}

// emitJSON writes a rendered JSON document to stdout, exiting on error.
func emitJSON(b []byte, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	os.Stdout.Write(b)
}
