// Command loadbalance demonstrates the PM2 feature that motivates
// preemptive thread migration in Section 2.1: "generic policies for dynamic
// load balancing, independently of the applications: the load of each
// processing node can be evaluated according to some measure, and balanced
// using preemptive migration."
//
// Eight compute-bound threads start on node 0 of a four-node cluster; the
// balancer daemon samples per-node load and migrates threads (at their next
// safe point, carrying their stacks to the same iso-addresses) until the
// load evens out.
//
// Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"dsmpm2"
)

func run(balance bool) (dsmpm2.Time, map[int]int) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Network: dsmpm2.SISCISCI})
	defer sys.Close()
	rt := sys.Runtime()
	final := map[int]int{}
	var threads []*dsmpm2.Thread
	for i := 0; i < 8; i++ {
		t := sys.Spawn(0, fmt.Sprintf("worker%d", i), func(t *dsmpm2.Thread) {
			for c := 0; c < 50; c++ {
				t.Compute(dsmpm2.Millisecond)
			}
		})
		t.PM2().SetMigratable(true)
		threads = append(threads, t)
	}
	if balance {
		rt.StartBalancer(500 * dsmpm2.Microsecond)
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	for _, t := range threads {
		final[t.Node()]++
	}
	return sys.Now(), final
}

func main() {
	without, placementW := run(false)
	with, placement := run(true)
	fmt.Printf("8 compute threads, all started on node 0 of a 4-node cluster\n\n")
	fmt.Printf("without balancer: finished at %8.1f ms, final placement %v\n",
		float64(without)/1e6, placementW)
	fmt.Printf("with balancer:    finished at %8.1f ms, final placement %v\n",
		float64(with)/1e6, placement)
	fmt.Printf("\nspeedup: %.2fx — preemptive migration spread the load across the cluster\n",
		float64(without)/float64(with))
}
