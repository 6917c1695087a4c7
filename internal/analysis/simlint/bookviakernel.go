package simlint

import (
	"go/ast"
	"strings"

	"charmgo/internal/analysis/framework"
)

// schedulers are the module-relative package roots allowed to book events
// directly: the kernel itself, the NIC engines, and the machine/scheduler
// layers that pump them.
var schedulers = []string{"internal/sim", "internal/gemini", "internal/shm",
	"internal/ugni", "internal/machine", "internal/converse"}

// kernelSurface maps each guarded internal/sim receiver type to its
// booking-verb methods and the module-relative package roots allowed to
// call them. This is the PR 1 boundary made machine-checkable: direct
// event scheduling and resource booking stay inside the kernel and the
// NIC engines; everything above (cmd/*, charm layer, examples, apps)
// must go through the gemini network facade or the machine layers.
var kernelSurface = map[string]map[string][]string{
	"Engine": {
		// Event scheduling: the kernel itself, the NIC engines, and the
		// machine/scheduler layers that pump them.
		"Schedule":    schedulers,
		"ScheduleArg": schedulers,
		"At":          schedulers,
		"AtArg":       schedulers,
	},
	"GapResource": {
		// Gemini link booking is the heart of the model: only the kernel
		// and the gemini engines may reserve link slots.
		"Acquire": {"internal/sim", "internal/gemini"},
		"Peek":    {"internal/sim", "internal/gemini"},
	},
	"PEResource": {
		// PE occupancy is booked by the layers that model host-side work.
		"Acquire": {"internal/sim", "internal/gemini", "internal/shm",
			"internal/ugni", "internal/machine", "internal/converse",
			"internal/mpi"},
	},
	"NICEngine": {
		// Calls through the interface value: the transport layers own it.
		"Transfer": {"internal/sim", "internal/gemini", "internal/shm",
			"internal/ugni", "internal/machine", "internal/mpi"},
		"Get": {"internal/sim", "internal/gemini", "internal/shm",
			"internal/ugni", "internal/machine", "internal/mpi"},
		"Enqueue": {"internal/sim", "internal/gemini", "internal/shm",
			"internal/ugni", "internal/machine", "internal/mpi"},
		"EnqueueArg": {"internal/sim", "internal/gemini", "internal/shm",
			"internal/ugni", "internal/machine", "internal/mpi"},
	},
}

// simPkg is the package defining the guarded kernel types.
const simPkg = module + "/internal/sim"

// BookViaKernel forbids direct kernel booking — sim.Engine scheduling,
// sim.GapResource/sim.PEResource acquisition, raw sim.NICEngine calls —
// from packages above the NIC-engine boundary established in PR 1.
// Higher layers route through gemini.Network (or a machine layer), which
// books via the audited unitEngine path. _test.go files are exempt:
// tests may drive the kernel directly.
var BookViaKernel = &framework.Analyzer{
	Name: "bookviakernel",
	Doc: "forbid direct sim.Engine scheduling and sim resource booking outside " +
		"the kernel/NIC-engine layers; higher layers use the gemini.Network facade",
	Run: runBookViaKernel,
}

func runBookViaKernel(pass *framework.Pass) error {
	r := rel(pass.PkgPath)
	if under(r, "internal/analysis") {
		return nil
	}
	check := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvPkg, recvType := receiverOf(pass, sel)
			if recvPkg != simPkg {
				return true
			}
			allowed, guarded := kernelSurface[recvType][sel.Sel.Name]
			if !guarded {
				return true
			}
			if !under(r, allowed...) {
				pass.Reportf(sel.Pos(),
					"direct kernel booking sim.%s.%s from %s: route through the "+
						"gemini network facade or a machine layer (PR 1 boundary)",
					recvType, sel.Sel.Name, displayPkg(pass.PkgPath))
			}
			return true
		})
	}
	for _, fi := range pass.Functions() {
		if fi.Decl == nil || isTestFile(pass, fi.Pos()) {
			continue
		}
		check(fi.Decl)
	}
	for _, e := range pass.InitExprs() {
		if !strings.HasSuffix(pass.File(e.Pos()), "_test.go") {
			check(e)
		}
	}
	return nil
}

// displayPkg shortens a package path for diagnostics.
func displayPkg(pkgPath string) string {
	if pkgPath == module {
		return "the root package"
	}
	return strings.TrimPrefix(pkgPath, module+"/")
}
