package simlint

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationAblation is the seeded mutation matrix that proves the
// analyzers earn their keep end-to-end: each row copies the module's Go
// sources into a scratch module, seeds one defect of the class the
// analyzer family was built to catch, and runs the real simlint binary
// there. The pristine copy must lint clean (exit 0 — every allow used),
// and every mutant must fail `make lint` (exit 1) with a finding from
// the expected analyzer.
//
// The first row makes FreeList.Get bump a list's outstanding count with
// sync/atomic while Put keeps its plain decrement: the dropped-atomic,
// mixed-discipline defect atomicshared exists for. The module itself has
// no sync/atomic cell, so the row seeds both halves of the pair. The next
// three rows seed ownership defects on the shipped machine layer:
// deleting a single descriptor Put (PR 4's manual ablation, automated),
// reading a descriptor after its Put, and deleting a slab release from
// Layer.Close. The last three rows seed the protocol
// defects the protoflow typestate family proves absent: severing the
// credit drain from its EvCreditReturn dispatch, dropping the
// credit-flight Put so the completion callback leaves the record zeroed
// but unretired, and deleting the MaxRetries guard so the
// transaction-error handler re-posts a failing descriptor forever.

type edit struct {
	old, new string
}

type ablationRow struct {
	name      string
	file      string // module-relative file to mutate
	edits     []edit // each must apply exactly once
	appendSrc string // appended verbatim after the edits
	analyzer  string // the analyzer that must report the mutant
}

func ablationRows() []ablationRow {
	return []ablationRow{
		{
			name: "dropped atomic on the live-descriptor counter",
			file: "internal/mem/freelist.go",
			edits: []edit{
				{old: "package mem\n", new: "package mem\n\nimport \"sync/atomic\"\n"},
				{old: "\tf.out++\n", new: "\tatomic.AddInt64(&f.out, 1)\n"},
			},
			analyzer: "atomicshared",
		},
		{
			name: "deleted descriptor Put (PR 4 ablation, automated)",
			file: "internal/machine/ugnimachine/layer.go",
			edits: []edit{{
				old: "\t\tl.acks.Put(ack)\n",
				new: "",
			}},
			analyzer: "poolleak",
		},
		{
			name: "descriptor read after its Put",
			file: "internal/machine/ugnimachine/layer.go",
			edits: []edit{{
				old: "\t\tid := ack.id\n\t\tl.acks.Put(ack)\n",
				new: "\t\tl.acks.Put(ack)\n\t\tid := ack.id\n",
			}},
			analyzer: "useafterrelease",
		},
		{
			name: "deleted slab release in Close (PR 4 ablation, automated)",
			file: "internal/machine/ugnimachine/layer.go",
			edits: []edit{{
				old: "\tpoolSlabs.Put(l.pools)\n",
				new: "",
			}},
			analyzer: "closechain",
		},
		{
			name: "deleted credit drain after the EvCreditReturn dispatch",
			file: "internal/machine/ugnimachine/layer.go",
			edits: []edit{{
				old: "\t\tl.drainPending(pe, ev)\n",
				new: "\t\t_ = ev\n",
			}},
			analyzer: "creditbalance",
		},
		{
			name: "deleted credit-flight Put in the return callback",
			file: "internal/ugni/gni.go",
			edits: []edit{{
				old: "\tg.creditFlights.Put(fl)\n",
				new: "\t_ = fl\n",
			}},
			analyzer: "flightlifecycle",
		},
		{
			name: "deleted MaxRetries guard on the transaction-error re-post",
			file: "internal/machine/ugnimachine/layer.go",
			edits: []edit{{
				old: "\t\tif int(d.Attempts) > l.cfg.MaxRetries {\n" +
					"\t\t\tpanic(fmt.Sprintf(\"ugnimachine: %v transaction to PE %d failed %d times\",\n" +
					"\t\t\t\td.Kind, d.Remote, d.Attempts))\n" +
					"\t\t}\n",
				new: "",
			}},
			analyzer: "boundedretry",
		},
	}
}

func TestMutationAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation matrix re-lints the whole module per row")
	}
	repo, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "simlint")
	if out, err := command(repo, "go", "build", "-o", bin, "./cmd/simlint"); err != nil {
		t.Fatalf("building simlint: %v\n%s", err, out)
	}

	pristine := copyModule(t, repo)
	if out, code := runLint(t, bin, pristine); code != 0 {
		t.Fatalf("pristine copy does not lint clean (exit %d):\n%s", code, out)
	}

	for _, row := range ablationRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // each row lints its own copy; the binary is read-only
			dir := copyModule(t, repo)
			mutateFile(t, filepath.Join(dir, row.file), row.edits, row.appendSrc)
			out, code := runLint(t, bin, dir)
			if code != 1 {
				t.Fatalf("mutant exited %d, want 1 (lint failure):\n%s", code, out)
			}
			if !strings.Contains(out, "("+row.analyzer+")") {
				t.Errorf("mutant findings lack a %s report:\n%s", row.analyzer, out)
			}
		})
	}
}

// copyModule copies the module's go.mod and every .go file (tests and
// all — the lint run analyzes test variants too) into a fresh temp
// module rooted at the same relative layout.
func copyModule(t *testing.T, repo string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		rel, err := filepath.Rel(repo, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}

// mutateFile applies each edit exactly once and appends appendSrc.
func mutateFile(t *testing.T, path string, edits []edit, appendSrc string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, e := range edits {
		if n := strings.Count(text, e.old); n != 1 {
			t.Fatalf("edit anchor %q occurs %d times in %s, want exactly 1", e.old, n, path)
		}
		text = strings.Replace(text, e.old, e.new, 1)
	}
	text += appendSrc
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runLint runs the simlint binary over the module at dir.
func runLint(t *testing.T, bin, dir string) (string, int) {
	t.Helper()
	out, err := command(dir, bin, "./...")
	if err == nil {
		return out, 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return out, ee.ExitCode()
	}
	t.Fatalf("running simlint: %v\n%s", err, out)
	return "", -1
}

func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}
