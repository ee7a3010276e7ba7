package core

import (
	"fmt"
	"strings"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// newTreeDSM builds a DSM whose barriers combine over clusters equal
// contiguous clusters.
func newTreeDSM(nodes, clusters int) *DSM {
	rt := pm2.NewRuntime(pm2.Config{
		Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1,
	})
	d := New(rt, NewRegistry(), DefaultCosts())
	d.EnableTreeBarrier(madeleine.EvenClusters(nodes, clusters))
	return d
}

func TestBarTreeShape(t *testing.T) {
	d := newTreeDSM(16, 4)
	if d.tree == nil {
		t.Fatal("EnableTreeBarrier built no combining tree")
	}
	wantLeaders := []int{0, 4, 8, 12}
	for s, want := range wantLeaders {
		if got := d.tree.leaders[s]; got != want {
			t.Errorf("leader[%d] = %d, want %d", s, got, want)
		}
	}
	if d.tree.parent[0] != -1 {
		t.Errorf("root parent = %d, want -1", d.tree.parent[0])
	}
	for s := 1; s < 4; s++ {
		if d.tree.parent[s] != 0 {
			t.Errorf("parent[%d] = %d, want 0", s, d.tree.parent[s])
		}
	}
	if got, want := fmt.Sprint(d.tree.children[0]), "[1 2 3]"; got != want {
		t.Errorf("children[0] = %s, want %s", got, want)
	}
	for n := 0; n < 16; n++ {
		if got, want := d.tree.leaders[d.tree.index[n]], (n/4)*4; got != want {
			t.Errorf("leader of node %d = %d, want %d", n, got, want)
		}
	}
	// Deeper tree: with 8 clusters, clusters 1-4 hang off the root and 5-7
	// off cluster 1 (fan-in 4 over tree indices).
	d8 := newTreeDSM(16, 8)
	if got, want := fmt.Sprint(d8.tree.children[0]), "[1 2 3 4]"; got != want {
		t.Errorf("8-cluster children[0] = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(d8.tree.children[1]), "[5 6 7]"; got != want {
		t.Errorf("8-cluster children[1] = %s, want %s", got, want)
	}
	// Clusters are indexed in leader order, whatever their ids: the root is
	// always node 0's cluster.
	odd := newBarTree([]int{5, 2, 5, 2, 9})
	if got, want := fmt.Sprint(odd.leaders, odd.index), "[0 1 4] [0 1 0 1 2]"; got != want {
		t.Errorf("leaders, index = %s, want %s", got, want)
	}
	// Without EnableTreeBarrier there is no tree and barriers stay flat.
	if newDSM(4).tree != nil {
		t.Error("default DSM built a combining tree")
	}
}

// TestTreeBarrierShuffledArrivals drives a cluster-wide barrier through
// several generations under different arrival orders: each permutation skews
// every node's pre-arrival delay differently, so arrivals hit leaders — and
// leader batches hit the root — in a different sequence each time. Whatever
// the order, every generation must complete exactly once, every node must
// observe every other node's pre-barrier write afterwards (the memory
// semantics the barrier exists for), and no combining residue may remain.
func TestTreeBarrierShuffledArrivals(t *testing.T) {
	const nodes, gens = 8, 5
	for perm := 0; perm < 4; perm++ {
		d := newTreeDSM(nodes, 4)
		rt := d.Runtime()
		id := d.NewBarrier(nodes)
		if !d.useTree(d.barriers[id]) {
			t.Fatal("cluster-wide barrier did not route through the tree")
		}
		counts := make([]int, nodes)
		errs := make([]error, nodes)
		for n := 0; n < nodes; n++ {
			n := n
			// Skew arrival order: node n waits ((n*7+perm*3) mod nodes)
			// microseconds longer each generation, a different total order
			// per permutation.
			skew := sim.Duration((n*7+perm*3)%nodes) * sim.Microsecond
			rt.CreateThread(n, fmt.Sprintf("w%d", n), func(th *pm2.Thread) {
				for g := 0; g < gens; g++ {
					th.Advance(skew)
					counts[n]++
					d.Barrier(th, id)
					for j := 0; j < nodes; j++ {
						if counts[j] != g+1 {
							errs[n] = fmt.Errorf("gen %d: node %d saw counts[%d]=%d, want %d",
								g, n, j, counts[j], g+1)
							return
						}
					}
					// Second barrier: nobody starts generation g+1's writes
					// until everyone finished reading generation g's.
					d.Barrier(th, id)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("perm %d: %v", perm, err)
		}
		for n, err := range errs {
			if err != nil {
				t.Errorf("perm %d node %d: %v", perm, n, err)
			}
		}
		if got := d.BarrierGen(id); got != 2*gens {
			t.Errorf("perm %d: barrier generation %d, want %d", perm, got, 2*gens)
		}
		if got := d.Stats().Barriers; got != int64(2*nodes*gens) {
			t.Errorf("perm %d: Barriers stat %d, want %d", perm, got, 2*nodes*gens)
		}
		if err := d.TreeBarrierResidue(); err != nil {
			t.Errorf("perm %d: residue after quiesce: %v", perm, err)
		}
	}
}

// TestSubsetBarrierStaysFlatUnderTreeBarrier: a barrier with fewer
// participants than nodes cannot combine per cluster (completion depends on
// the arrival count alone), so it must keep the flat path — and still work
// across clusters.
func TestSubsetBarrierStaysFlatUnderTreeBarrier(t *testing.T) {
	d := newTreeDSM(8, 4)
	rt := d.Runtime()
	id := d.NewBarrier(3)
	if d.useTree(d.barriers[id]) {
		t.Fatal("subset barrier routed through the tree")
	}
	done := make([]bool, 8)
	for _, n := range []int{0, 3, 7} { // one per distant cluster
		n := n
		rt.CreateThread(n, fmt.Sprintf("s%d", n), func(th *pm2.Thread) {
			d.Barrier(th, id)
			done[n] = true
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 7} {
		if !done[n] {
			t.Fatalf("participant on node %d did not finish", n)
		}
	}
	if d.BarrierGen(id) != 1 {
		t.Fatalf("generation %d, want 1", d.BarrierGen(id))
	}
}

// TestTreeBarrierResidueMidCombine: members parked at a non-root leader are
// in-flight combining state with no serializable form, so TreeBarrierResidue
// names the barrier and leader and a capture at that moment is rejected.
func TestTreeBarrierResidueMidCombine(t *testing.T) {
	d := newTreeDSM(8, 4)
	rt := d.Runtime()
	id := d.NewBarrier(8)
	for _, n := range []int{2, 3} { // cluster 1 only: the generation never completes
		n := n
		rt.CreateThread(n, fmt.Sprintf("m%d", n), func(th *pm2.Thread) { d.Barrier(th, id) })
	}
	if _, ok := rt.Run().(*sim.DeadlockError); !ok {
		t.Fatal("half a barrier generation did not deadlock")
	}
	err := d.TreeBarrierResidue()
	if err == nil || !strings.Contains(err.Error(), "mid-combine at leader node 2") {
		t.Fatalf("residue = %v, want barrier %d mid-combine at leader node 2", err, id)
	}
	if _, err := d.CaptureState(); err == nil {
		t.Fatal("capture accepted a mid-combine tree barrier")
	}
	rt.Close()
}
