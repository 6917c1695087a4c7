package main

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"charmgo/internal/analysis/framework"
	"charmgo/internal/analysis/simlint"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden JSON schema files")

// TestDiagsJSONGolden pins the -json wire schema: field names, field
// order, indentation, and the empty-array (never null) clean case.
// Downstream consumers (the CI artifact, editor integrations) parse this
// shape; changing it is a contract change and must show up as a golden
// diff in review. Run `go test ./cmd/simlint -update` after a deliberate
// change.
func TestDiagsJSONGolden(t *testing.T) {
	diags := []framework.Diagnostic{
		{
			Analyzer: "atomicshared",
			Pos:      token.Position{Filename: "internal/mem/freelist.go", Line: 80, Column: 2},
			Message:  "plain access to charmgo/internal/mem.live, which is accessed through sync/atomic elsewhere (internal/mem/freelist.go:60:18): one discipline only",
		},
		{
			Analyzer: "poolleak",
			Pos:      token.Position{Filename: "internal/machine/ugnimachine/layer.go", Line: 797, Column: 3},
			Message:  "pooled value ack may leak: owned here but neither released (Put) nor transferred on some path to return",
		},
	}
	got, err := renderDiagsJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diags.golden.json", got)

	empty, err := renderDiagsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]\n" {
		t.Errorf("clean run must render as an empty array, got %q", empty)
	}
}

// TestAuditJSONGolden pins the -audit -json wire schema the same way.
func TestAuditJSONGolden(t *testing.T) {
	sups := []framework.Suppression{
		{
			Verb:     "allow",
			Analyzer: "hotpathalloc",
			Pos:      token.Position{Filename: "internal/sim/engine.go", Line: 165, Column: 3},
			Reason:   "event pool miss path: allocates only while the free list is empty",
		},
	}
	got, err := renderAuditJSON(sups)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "audit.golden.json", got)
}

// TestRulesGolden pins the -rules output over the real registered suite:
// analyzer order, each one-line contract, and the annotation grammar of
// the annotation-driven analyzers. A new analyzer (or a reworded
// contract) must show up as a golden diff in review.
func TestRulesGolden(t *testing.T) {
	checkGolden(t, "rules.golden.txt", renderRules(simlint.Analyzers()))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./cmd/simlint -update` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from the golden schema\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
