package bench

import (
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/apps/tsp"
)

// hier8 is the 8-cluster hierarchical topology the tree-barrier tests run
// on: BIP/Myrinet inside each cluster, Fast Ethernet on the backbone.
func hier8(nodes int) dsmpm2.Topology {
	return dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(nodes, 8),
		dsmpm2.BIPMyrinet, dsmpm2.TCPFastEthernet)
}

// TestTreeBarrierAppsMatchOracles: the three paper applications on the
// 8-cluster topology compute their serial oracle's answer. Jacobi runs with
// combining-tree barriers, twice, and the replay must be bit-identical;
// matmul and tsp issue no barriers, so TreeBarrier cannot reach them and
// they run on the same topology (matmul) or the default network (tsp, which
// has no topology knob) as the oracle cross-check of the model.
func TestTreeBarrierAppsMatchOracles(t *testing.T) {
	jac := func() jacobi.Result {
		res, err := jacobi.Run(jacobi.Config{
			N: 16, Iterations: 3, Nodes: 16, Topology: hier8(16),
			Protocol: "hbrc_mw", Seed: 1, TreeBarrier: true,
		})
		if err != nil {
			t.Fatalf("jacobi: %v", err)
		}
		return res
	}
	r1, r2 := jac(), jac()
	if want := jacobi.SolveSerial(16, 3); r1.Checksum != want {
		t.Errorf("jacobi checksum %v, serial %v", r1.Checksum, want)
	}
	if a, b := TraceFingerprint(r1.System), TraceFingerprint(r2.System); a != b {
		t.Errorf("jacobi replay fingerprint %s != %s", b, a)
	}
	if r1.Stats.Barriers == 0 {
		t.Error("jacobi ran no barriers; the tree was never exercised")
	}

	mm, err := matmul.Run(matmul.Config{
		N: 12, Nodes: 16, Topology: hier8(16), Protocol: "li_hudak", Seed: 3,
	})
	if err != nil {
		t.Fatalf("matmul: %v", err)
	}
	if want := matmul.SolveSerial(12, 3); mm.Checksum != want {
		t.Errorf("matmul checksum %v, serial %v", mm.Checksum, want)
	}

	ts, err := tsp.Run(tsp.Config{Cities: 8, Seed: 42, Nodes: 8, Protocol: "li_hudak"})
	if err != nil {
		t.Fatalf("tsp: %v", err)
	}
	if want := tsp.SolveSerial(tsp.Distances(8, 42)); ts.BestCost != want {
		t.Errorf("tsp best cost %d, serial %d", ts.BestCost, want)
	}
}

// TestTreeBarrier512BackbonePin pins the combining tree's headline wire
// count: 512-node jacobi on the 8-cluster topology sends 2132 envelopes over
// the backbone, against 5488 with flat barriers. The per-barrier figure
// subtracts the backbone page-fetch pairs found in the fault-timing ring
// (the most recent 4096 faults), which is 71 for this run.
func TestTreeBarrier512BackbonePin(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node run")
	}
	r := commScale(512, 4, true)
	if r.BackboneEnvelopes != 2132 || r.BackbonePerBarrier != 71 {
		t.Errorf("512-node tree row: backbone %d envelopes, %.2f per barrier; want 2132 and 71",
			r.BackboneEnvelopes, r.BackbonePerBarrier)
	}
}
