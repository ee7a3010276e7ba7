package core

import (
	"fmt"

	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Combining-tree barriers. The flat barrier of sync.go funnels every arrival
// to one manager node: N blocking RPCs converge on node 0, and on a
// hierarchical network most of them cross the backbone. With tree barriers
// enabled (EnableTreeBarrier), arrivals instead combine hierarchically: every
// node reports to its cluster's leader, leaders fold batches of arrivals
// upward through a fan-in-barFanIn tree of clusters, and the root — node 0,
// the same node that manages the flat barrier — releases the generation by
// relaying the grant back down the tree. The backbone then carries O(log C)
// envelopes per generation (C = cluster count) instead of O(N), while
// intra-cluster arrivals stay on intra-cluster links.
//
// Determinism. All state of a leader lives on that leader's node; the fold
// at each level is order-insensitive (a count, a NodeSet union, and a notice
// multiset that the root canonicalizes exactly as the flat barrier does); and
// the root replays the flat barrier's completion logic verbatim. Whatever
// order arrivals reach the leaders in, the generation completes with the same
// canonical grant, so the tree barrier is bit-compatible with the flat one at
// the level of observable DSM state.
//
// The tree is used only when crash recovery is off: participant takeover and
// stale-generation re-arrival are crash-recovery machinery, and recovery's
// death bookkeeping is itself centralized. BarrierAs routes per barrier — see
// useTree.

// barFanIn is the combining-tree fan-in: each interior leader folds arrivals
// from up to barFanIn child clusters plus its own.
const barFanIn = 4

const (
	svcBarArrive  = "dsm.barrier.arrive"
	svcBarCombine = "dsm.barrier.combine"
	svcBarGrant   = "dsm.barrier.grant"
)

// barTree is the static shape of the combining tree: one leader per cluster
// (its lowest node id), clusters indexed in leader order and linked
// parent(i) = (i-1)/barFanIn. The root leader is node 0 — the flat barrier's
// manager — so barrier state (generation counters, profiler epochs) lives on
// the same node either way.
type barTree struct {
	leaders  []int   // tree index -> leader node id
	index    []int   // node id -> its cluster's tree index
	parent   []int   // tree index -> parent tree index, -1 at the root
	children [][]int // tree index -> child tree indices, ascending
}

// newBarTree derives the tree from a node -> cluster assignment.
func newBarTree(clusterOf []int) *barTree {
	t := &barTree{index: make([]int, len(clusterOf))}
	idx := map[int]int{} // cluster id -> tree index
	for n, c := range clusterOf {
		i, ok := idx[c]
		if !ok {
			i = len(t.leaders)
			idx[c] = i
			t.leaders = append(t.leaders, n)
		}
		t.index[n] = i
	}
	t.parent = make([]int, len(t.leaders))
	t.children = make([][]int, len(t.leaders))
	t.parent[0] = -1
	for i := 1; i < len(t.leaders); i++ {
		p := (i - 1) / barFanIn
		t.parent[i] = p
		t.children[p] = append(t.children[p], i)
	}
	return t
}

// EnableTreeBarrier routes cluster-wide barriers through a combining tree
// over the given clusters (clusterOf[n] is node n's cluster id). Call it
// once, before Run.
func (d *DSM) EnableTreeBarrier(clusterOf []int) {
	if len(clusterOf) != d.rt.Nodes() {
		panic(fmt.Sprintf("core: tree barrier over %d nodes on a %d-node machine", len(clusterOf), d.rt.Nodes()))
	}
	if d.tree != nil {
		panic("core: EnableTreeBarrier called twice")
	}
	d.tree = newBarTree(clusterOf)
	for n := 0; n < d.rt.Nodes(); n++ {
		d.registerTreeBarServices(d.rt.Node(n))
	}
}

// treeBarLocal is one leader's accumulator for one barrier. pending counts
// the arrivals folded locally (own cluster members plus whole child batches)
// but not yet reported upward; nodes and notices ride the next upward batch.
// inFlight marks that some handler thread is currently acting as the carrier,
// draining pending to the parent; waiters are the grant channels of every
// member arrival parked at this leader for the current generation.
type treeBarLocal struct {
	pending  int
	nodes    NodeSet
	notices  []WriteNotice
	inFlight bool
	waiters  []*sim.Chan
}

// treeArriveMsg is a member's arrival at its cluster leader.
type treeArriveMsg struct {
	id      int
	from    int
	notices []WriteNotice
}

// treeCombineMsg is a child leader's batch reported to its parent. The
// NodeSet is passed by value: the sender Take()s its accumulator, so the
// receiver owns the runs outright.
type treeCombineMsg struct {
	id      int
	count   int
	nodes   NodeSet
	notices []WriteNotice
}

// treeGrantMsg relays a completed generation's grant down the tree.
type treeGrantMsg struct {
	id    int
	grant *barrierGrant
}

// useTree reports whether barrier bs routes through the combining tree. The
// gate is per barrier but constant over a run, so every arrival of a given
// barrier takes the same path: tree barriers must be enabled, crash recovery
// must be off (takeover and death bookkeeping are flat-barrier machinery),
// and the barrier must be cluster-wide — subset barriers stay flat, where the
// arrival count alone decides completion.
func (d *DSM) useTree(bs *barrierState) bool {
	return d.tree != nil && d.recovery == nil && bs.n >= d.rt.Nodes()
}

// treebar returns (creating on first use) leader's accumulator for barrier
// id. Only ever called from handlers running on leader's node.
func (d *DSM) treebar(leader, id int) *treeBarLocal {
	ns := d.state[leader]
	if ns.treebar == nil {
		ns.treebar = make(map[int]*treeBarLocal)
	}
	tb := ns.treebar[id]
	if tb == nil {
		tb = &treeBarLocal{}
		ns.treebar[id] = tb
	}
	return tb
}

// registerTreeBarServices installs the tree-barrier services on node (a
// no-op role-wise on non-leader nodes; registration is uniform so the service
// table does not depend on the cluster map).
func (d *DSM) registerTreeBarServices(node *pm2.Node) {
	node.Register(svcBarArrive, true, func(h *pm2.Thread, arg interface{}) interface{} {
		m := arg.(*treeArriveMsg)
		leader := h.Node()
		if d.tree.leaders[d.tree.index[leader]] != leader {
			panic(fmt.Sprintf("core: tree-barrier arrival at non-leader node %d", leader))
		}
		if leader == d.tree.leaders[0] {
			return d.treeRootFold(h, m.id, 1, oneNode(m.from), m.notices, true)
		}
		tb := d.treebar(leader, m.id)
		tb.pending++
		tb.nodes.Add(m.from)
		tb.notices = append(tb.notices, m.notices...)
		// Park BEFORE carrying: the grant can arrive during the carrier
		// loop's last upward Call (the root completes as soon as the batch
		// folds, before the ack travels back), and it must find this
		// arrival's channel already registered.
		ch := new(sim.Chan)
		tb.waiters = append(tb.waiters, ch)
		d.treeCarry(h, m.id, tb)
		g, _ := ch.Recv(h.Proc()).(*barrierGrant)
		return grantReply(g)
	})

	node.Register(svcBarCombine, true, func(h *pm2.Thread, arg interface{}) interface{} {
		m := arg.(*treeCombineMsg)
		leader := h.Node()
		if leader == d.tree.leaders[0] {
			return d.treeRootFold(h, m.id, m.count, m.nodes, m.notices, false)
		}
		tb := d.treebar(leader, m.id)
		tb.pending += m.count
		tb.nodes.Union(m.nodes)
		tb.notices = append(tb.notices, m.notices...)
		// Fold first, then carry if no carrier is active: the ack back to
		// the child doubles as flow control — the child's next batch waits
		// until this one has moved on.
		d.treeCarry(h, m.id, tb)
		return nil
	})

	node.Register(svcBarGrant, false, func(h *pm2.Thread, arg interface{}) interface{} {
		m := arg.(*treeGrantMsg)
		d.treeGrantDown(h, m.id, m.grant)
		return nil
	})
}

// treeCarry drains tb.pending upward. The calling handler thread becomes the
// carrier unless one is already active (inFlight): it snapshots the
// accumulator, reports the batch to the parent leader with a blocking Call
// (so batches from one leader arrive in order and self-throttle), and loops
// until nothing new accumulated during the round trip. Batching is the point:
// arrivals that land while a batch is in flight ride the next one, so a
// leader sends at most O(cluster size) and typically O(1) backbone messages
// per generation.
func (d *DSM) treeCarry(h *pm2.Thread, id int, tb *treeBarLocal) {
	if tb.inFlight {
		return
	}
	tb.inFlight = true
	parent := d.tree.leaders[d.tree.parent[d.tree.index[h.Node()]]]
	for tb.pending > 0 {
		m := &treeCombineMsg{
			id:      id,
			count:   tb.pending,
			nodes:   tb.nodes.Take(),
			notices: tb.notices,
		}
		tb.pending = 0
		tb.notices = nil
		h.Call(parent, svcBarCombine, m,
			ctrlBytes+noticeBytes*len(m.notices), ctrlBytes)
	}
	tb.inFlight = false
}

// treeRootFold folds a batch (a local arrival or a child leader's combine)
// into the root barrier state and, when the generation completes, replays the
// flat barrier's completion: bump the generation, canonicalize the notices,
// check coverage, fold the profiler epoch and run migrations while every
// participant is parked, then relay the grant down the tree and to the root's
// own parked waiters. Returns the RPC reply: the grant for a completing local
// arrival, a park-then-grant for an early one, nil (the ack) for combines.
func (d *DSM) treeRootFold(h *pm2.Thread, id, count int, nodes NodeSet, notices []WriteNotice, localArrival bool) interface{} {
	bs := d.barriers[id]
	bs.notices = append(bs.notices, notices...)
	if bs.arrivedNodes == nil {
		bs.arrivedNodes = make(map[int]bool)
	}
	nodes.ForEach(func(n int) { bs.arrivedNodes[n] = true })
	bs.arrived += count
	if bs.arrived < bs.n {
		if localArrival {
			// A root-cluster arrival parks at the root like any member at
			// its leader.
			tb := d.treebar(d.tree.leaders[0], id)
			ch := new(sim.Chan)
			tb.waiters = append(tb.waiters, ch)
			g, _ := ch.Recv(h.Proc()).(*barrierGrant)
			return grantReply(g)
		}
		return nil // combine ack; the child's members stay parked at the child
	}
	// Generation complete: this block mirrors svcBarrier's completion in
	// sync.go — keep the two in step.
	bs.arrived = 0
	bs.gen++
	grant := &barrierGrant{notices: canonicalNotices(bs.notices)}
	bs.notices = nil
	covered := d.noticeCoverage(bs)
	if len(grant.notices) > 0 && !covered {
		panic(fmt.Sprintf("core: barrier %d released write notices without hearing from every node (notices require one participant per node)", bs.id))
	}
	bs.arrivedNodes = nil
	tb := d.treebar(d.tree.leaders[0], id)
	waiters := tb.waiters
	tb.waiters = nil
	if d.prof != nil && covered && !d.prof.folding {
		// Every participant of the generation is parked somewhere in the
		// tree, so the pages are quiescent — same argument as the flat
		// barrier, with "parked at the manager" generalized to "parked at
		// its cluster leader".
		d.prof.folding = true
		ep, cands := d.foldEpoch()
		grant.migrations = d.runMigrations(h, &ep, cands)
		d.closeEpoch(ep)
		d.prof.folding = false
	}
	for _, s := range d.tree.children[0] {
		h.Async(d.tree.leaders[s], svcBarGrant, &treeGrantMsg{id: id, grant: grant},
			ctrlBytes+noticeBytes*(len(grant.notices)+len(grant.migrations)))
	}
	for _, ch := range waiters {
		ch.Push(grant)
	}
	if localArrival {
		return grantReply(grant)
	}
	return nil // combine ack: the completing child's grant rides svcBarGrant
}

// treeGrantDown delivers a generation's grant at a leader: relay it to the
// leader's tree children, then wake every member parked here. Both steps are
// non-blocking, so the whole relay is one atomic event — a member's
// next-generation arrival cannot interleave with it.
func (d *DSM) treeGrantDown(h *pm2.Thread, id int, grant *barrierGrant) {
	leader := h.Node()
	for _, s := range d.tree.children[d.tree.index[leader]] {
		h.Async(d.tree.leaders[s], svcBarGrant, &treeGrantMsg{id: id, grant: grant},
			ctrlBytes+noticeBytes*(len(grant.notices)+len(grant.migrations)))
	}
	tb := d.treebar(leader, id)
	waiters := tb.waiters
	tb.waiters = nil
	for _, ch := range waiters {
		ch.Push(grant)
	}
}

// treeBarrierArrive is the member side: report the arrival (with piggybacked
// notices) to the cluster leader and block for the grant. The reply protocol
// matches the flat barrier's, so BarrierAs applies the grant identically.
func (d *DSM) treeBarrierArrive(t *pm2.Thread, id int, notices []WriteNotice) interface{} {
	leader := d.tree.leaders[d.tree.index[t.Node()]]
	m := &treeArriveMsg{id: id, from: t.Node(), notices: notices}
	return t.Call(leader, svcBarArrive, m,
		ctrlBytes+noticeBytes*len(notices), ctrlBytes)
}

// oneNode returns a NodeSet holding exactly n.
func oneNode(n int) NodeSet {
	var s NodeSet
	s.Add(n)
	return s
}

// TreeBarrierResidue reports whether any combining-tree accumulator holds
// in-flight barrier state — pending arrivals not yet reported upward, an
// active carrier, or parked members awaiting a grant. Checkpoint capture
// calls it to reject unsafe moments: a snapshot taken mid-combine would
// strand the parked members' channels and the un-reported counts, neither of
// which has a serializable form. The error names the residue so the caller
// can see which barrier and leader were mid-flight.
func (d *DSM) TreeBarrierResidue() error {
	if d.tree == nil {
		return nil
	}
	for _, leader := range d.tree.leaders {
		ns := d.state[leader]
		for id, tb := range ns.treebar {
			if tb.pending > 0 || tb.inFlight || len(tb.waiters) > 0 {
				return fmt.Errorf("core: barrier %d mid-combine at leader node %d (pending=%d inFlight=%v parked=%d)",
					id, leader, tb.pending, tb.inFlight, len(tb.waiters))
			}
		}
	}
	return nil
}
