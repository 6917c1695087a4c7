package simlint

import (
	"testing"

	"charmgo/internal/analysis/framework"
)

// TestShardCtxRealTree is the shard-ownership canary over the real
// module: the worker closure must include the dynamic-dispatch surface
// (Engine.nextSeq via the captured Shard handle's method set), the owned
// region must stay tight (the type filter keeps Andersen conflation from
// sweeping the program into it).
func TestShardCtxRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module points-to in -short mode")
	}
	ld := framework.NewLoader("../../..")
	pkgs, err := ld.LoadModule("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	prog := framework.NewProgram(pkgs)
	var simPkg *framework.Package
	for _, p := range pkgs {
		if p.PkgPath == "charmgo/internal/sim" {
			simPkg = p
			break
		}
	}
	if simPkg == nil {
		t.Fatal("no sim package")
	}
	var diags []framework.Diagnostic
	pass := framework.NewPass(ShardEscape, simPkg, prog, &diags)
	c := shardContext(pass)
	t.Logf("workerLits=%d workerFuncs=%d owned=%d shared=%d outbox=%d transfer=%d",
		len(c.workerLits), len(c.workerFuncs), len(c.owned),
		len(c.sharedFields), len(c.outboxFields), len(c.transferFns))

	if len(c.workerLits) != 1 {
		t.Fatalf("worker literals = %d, want 1 (startWorkers)", len(c.workerLits))
	}
	for _, fid := range []string{
		"charmgo/internal/sim.(Engine).nextSeq",
		"charmgo/internal/sim.(Engine).acquire",
		"charmgo/internal/sim.(Engine).RunUntil",
		"charmgo/internal/sim.(Shard).Send",
	} {
		if !c.workerFuncs[fid] {
			t.Errorf("worker closure misses %s", fid)
		}
	}
	if c.workerFuncs["charmgo/internal/sim.(ShardedEngine).mergeOutboxes"] {
		t.Error("mergeOutboxes must stay coordinator-side (not worker-reachable)")
	}
	// The gemini Network's booking cells are shard-partitioned now
	// (links by source-router ownership, routes by single-writer rows,
	// transfers/bytes as per-shard tallies): the //simlint:shared
	// stepping stones of the lockstep era must stay gone, and the one
	// cell that still crosses the partition — the reservation outbox —
	// must carry the outbox discipline instead.
	for _, key := range []string{
		"charmgo/internal/gemini.Network.links",
		"charmgo/internal/gemini.Network.routes",
		"charmgo/internal/gemini.Network.transfers",
		"charmgo/internal/gemini.Network.bytes",
	} {
		if _, ok := c.sharedFields[key]; ok {
			t.Errorf("stale //simlint:shared annotation on %s: the network model is shard-partitioned", key)
		}
	}
	if _, ok := c.outboxFields["charmgo/internal/gemini.Network.resv"]; !ok {
		t.Error("missing //simlint:outbox annotation on gemini.Network.resv")
	}
	// The owned region is the shard's private world: nonempty, but far
	// below the whole-object population. Before the type-filtered cut it
	// swept ~80% of all abstract objects through conflated cells.
	if len(c.owned) == 0 {
		t.Error("owned region is empty")
	}
	if total := 500; len(c.owned) > total {
		t.Errorf("owned region has %d objects, want <= %d: the ownership cut is leaking", len(c.owned), total)
	}
}
