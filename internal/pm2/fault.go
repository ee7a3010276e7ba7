package pm2

import (
	"fmt"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// Node-level fault support: fail-stop crash (every thread located on the
// node dies, the network drops its traffic) and cold restart (fresh CPUs,
// fresh RPC dispatchers, empty queues). The DSM layer above coordinates the
// page-state recovery; this file only handles the runtime machinery.

// EnableFaults switches on the network fault layer and registers the
// runtime's payload handlers with it, so dropped RPC requests return their
// pooled envelopes exactly once and duplicated one-way requests get an
// independent envelope copy.
func (rt *Runtime) EnableFaults(seed int64, policy madeleine.PartitionPolicy) {
	rt.net.EnableFaults(seed, policy)
	rt.net.SetDropHandler(func(p interface{}) {
		if r, ok := p.(*rpcReq); ok {
			rt.putReq(r)
		}
	})
	rt.net.SetDupHandler(func(p interface{}) interface{} {
		r, ok := p.(*rpcReq)
		if !ok || r.reply != nil {
			// Only one-way invocations duplicate: a duplicated synchronous
			// request would push two replies into one private reply queue.
			return nil
		}
		r2 := rt.getReq()
		*r2 = *r
		return r2
	})
}

// KillNode fail-stops node n: every unfinished thread currently located on
// it (application threads, RPC dispatchers, handler threads, migrated-in
// threads) is killed, joiners of those threads are released, and the network
// starts dropping the node's traffic. Must run in engine context (a fault
// event), never from a thread on node n.
func (rt *Runtime) KillNode(n int) {
	node := rt.Node(n)
	if node.dead {
		return
	}
	node.dead = true
	rt.net.CrashNode(n)
	for _, t := range rt.threads {
		rt.killThread(t, n)
	}
}

// killThread kills t if it is an unfinished thread located on node n.
func (rt *Runtime) killThread(t *Thread, n int) {
	if t.node != n || t.done {
		return
	}
	t.proc.Kill()
	t.done = true
	for _, j := range t.joiners {
		if !j.Dead() {
			j.Unpark()
		}
	}
	t.joiners = nil
}

// RestartNode brings a crashed node back cold: alive again for the network,
// a fresh CPU resource (threads killed mid-compute can never return their
// units, so the old resource may be stranded), and freshly spawned
// dispatcher threads for every service that was registered, in registration
// order so replays are deterministic.
func (rt *Runtime) RestartNode(n int) {
	node := rt.Node(n)
	if !node.dead {
		return
	}
	rt.net.RestartNode(n)
	node.dead = false
	node.CPU = sim.NewResource(rt.cpus)
	for _, name := range node.svcOrder {
		node.spawnDispatcher(node.services[name])
	}
	node.Restarts++
}

// Dead reports whether the node is currently crashed.
func (n *Node) Dead() bool { return n.dead }

// checkAlive panics on operations against a crashed node, to surface fault
// plan bugs (spawning threads before the restart event) immediately.
func (n *Node) checkAlive(op string) {
	if n.dead {
		panic(fmt.Sprintf("pm2: %s on crashed node %d", op, n.ID))
	}
}
