// Command migration demonstrates PM2's preemptive thread migration and the
// migrate_thread consistency protocol (Figure 3 of the paper): a thread
// faults on remote data and simply moves to it, with a cost tied to its
// stack size (Table 4).
//
// Run with:
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"dsmpm2"
)

func main() {
	for _, network := range []*dsmpm2.NetworkProfile{dsmpm2.BIPMyrinet, dsmpm2.SISCISCI} {
		fmt.Printf("--- %s ---\n", network.Name)
		for _, stack := range []int{1 << 10, 16 << 10, 64 << 10} {
			sys, err := dsmpm2.New(dsmpm2.Config{
				Nodes:    2,
				Network:  network,
				Protocol: "migrate_thread",
			})
			if err != nil {
				log.Fatal(err)
			}
			data := sys.MustMalloc(1, 8, nil) // lives on node 1
			var before, after int
			var took dsmpm2.Duration
			sys.SpawnStack(0, "wanderer", stack, func(t *dsmpm2.Thread) {
				before = t.Node()
				start := t.Now()
				t.WriteUint64(data, 7) // faults; protocol migrates the thread
				took = t.Now().Sub(start)
				after = t.Node()
			})
			if err := sys.Run(); err != nil {
				log.Fatal(err)
			}
			sys.Close()
			fmt.Printf("stack %5d B: node %d -> node %d in %v (fault + migration + overhead)\n",
				stack, before, after, took)
		}
		fmt.Println()
	}
	fmt.Println("Migration cost grows with the thread's stack size, as in Section 4:")
	fmt.Println("\"this migration time is closely related to the stack size of the thread\".")
}
