package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"charmgo/internal/analysis/framework"
	"charmgo/internal/analysis/simlint"
)

// benchBudget is the checked-in wall-clock budget for `simlint -bench`
// (cmd/simlint/budget.json). The numbers carry ~4x headroom over a warm
// local run so real regressions — an analyzer going quadratic, the
// points-to solve blowing up — trip the gate while CI jitter does not.
type benchBudget struct {
	// LoadSeconds bounds package loading and type-checking.
	LoadSeconds float64 `json:"load_seconds"`
	// AnalysisSeconds bounds the summed analyzer time.
	AnalysisSeconds float64 `json:"analysis_seconds"`
	// AnalyzerSeconds bounds any single analyzer, and the shared
	// points-to solve, which runs once before the analyzers and is
	// reported on its own line. The solve is what sizes it: several times
	// larger than any individual scan.
	AnalyzerSeconds float64 `json:"analyzer_seconds"`
	// PerAnalyzerSeconds overrides AnalyzerSeconds for named analyzers.
	// The protoflow typestate family is budgeted here, well under the
	// points-to-sized default: the engine's summaries are memoized, so a
	// blow-up past these lines means the summary composition went
	// super-linear.
	PerAnalyzerSeconds map[string]float64 `json:"per_analyzer_seconds"`
}

// cap returns the wall-clock bound for one analyzer.
func (b *benchBudget) cap(analyzer string) float64 {
	if s, ok := b.PerAnalyzerSeconds[analyzer]; ok {
		return s
	}
	return b.AnalyzerSeconds
}

// runBench times each analyzer over the loaded packages, prints the
// breakdown, and returns 1 if any budget line is exceeded.
func runBench(pkgs []*framework.Package, load time.Duration, budgetPath string) int {
	if budgetPath == "" {
		budgetPath = filepath.Join("cmd", "simlint", "budget.json")
	}
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	var budget benchBudget
	if err := json.Unmarshal(data, &budget); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", budgetPath, err)
		return 2
	}

	// Force the points-to solve before the analyzer loop, so its cost is
	// its own line rather than a charge to whichever analyzer (the first
	// RecordKey caller) happens to need it first.
	prog := framework.NewProgram(pkgs)
	start := time.Now()
	prog.PointsTo()
	solve := framework.AnalyzerTiming{Analyzer: "points-to solve", Elapsed: time.Since(start)}

	diags, timings, err := framework.RunTimed(prog, simlint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	bad := 0
	var total time.Duration
	for _, tm := range append([]framework.AnalyzerTiming{solve}, timings...) {
		total += tm.Elapsed
		over := ""
		if cap := budget.cap(tm.Analyzer); tm.Elapsed.Seconds() > cap {
			over = fmt.Sprintf("  OVER BUDGET (%.1fs)", cap)
			bad++
		}
		fmt.Printf("%-16s %9.1fms%s\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000, over)
	}
	fmt.Printf("%-16s %9.1fms (budget %.1fs)\n", "analysis total", float64(total.Microseconds())/1000, budget.AnalysisSeconds)
	fmt.Printf("%-16s %9.1fms (budget %.1fs)\n", "load+typecheck", float64(load.Microseconds())/1000, budget.LoadSeconds)
	fmt.Printf("%-16s %9d\n", "findings", len(diags))

	if total.Seconds() > budget.AnalysisSeconds {
		fmt.Fprintf(os.Stderr, "simlint: analysis %.1fs exceeds budget %.1fs\n", total.Seconds(), budget.AnalysisSeconds)
		bad++
	}
	if load.Seconds() > budget.LoadSeconds {
		fmt.Fprintf(os.Stderr, "simlint: load %.1fs exceeds budget %.1fs\n", load.Seconds(), budget.LoadSeconds)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}
