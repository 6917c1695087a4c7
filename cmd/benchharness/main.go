// Command benchharness regenerates the paper's evaluation: every figure
// and table has a runner (see DESIGN.md §3 for the index).
//
// Usage:
//
//	benchharness -list
//	benchharness -exp fig9a
//	benchharness -exp all [-quick] [-seed 1]
//	benchharness -allocgate FILE     # CI gate: fig9a allocs/op vs threshold
//
// Full mode reproduces the paper's axes (core counts up to 15,360); quick
// mode shrinks sizes and core counts so the whole suite finishes in
// seconds.
//
// -allocgate reads an allocs/op threshold (a single integer) from FILE,
// measures the allocations of one full-axis Figure 9(a) regeneration, and
// exits nonzero if they exceed the threshold by more than 10%. Wall-clock
// comparisons live in cmd/simbench (`run.sh --compare`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"charmgo/internal/bench"
)

func runAllocGate(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: %v\n", err)
		os.Exit(2)
	}
	threshold, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: bad threshold in %s: %v\n", path, err)
		os.Exit(2)
	}
	allocs, err := bench.CheckAllocGate(threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("allocgate: ok: fig9a %d allocs/op (threshold %d +10%%)\n", allocs, threshold)
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig1, fig4, ..., tab2) or 'all'")
		quick     = flag.Bool("quick", false, "reduced sizes/core counts")
		seed      = flag.Uint64("seed", 1, "workload placement seed")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		allocgate = flag.String("allocgate", "", "threshold file for the fig9a allocs/op CI gate")
	)
	flag.Parse()

	if *allocgate != "" {
		runAllocGate(*allocgate)
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Quick: *quick, Seed: *seed}
	run := func(e bench.Experiment) {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		for _, t := range e.Run(opts) {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s wall time: %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}
