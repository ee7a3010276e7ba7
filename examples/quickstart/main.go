// Command quickstart mirrors the paper's Figure 2: select a built-in
// protocol (li_hudak), share an integer across the cluster, and increment it
// from every node under a DSM lock.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dsmpm2"
)

func main() {
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:    4,
		Network:  dsmpm2.BIPMyrinet,
		Protocol: "li_hudak", // pm2_dsm_set_default_protocol(li_hudak)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// int x = 34; inside BEGIN_DSM_DATA / END_DSM_DATA.
	x := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	sys.Spawn(0, "init", func(t *dsmpm2.Thread) { t.WriteUint64(x, 34) })
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	// Every node increments x a few times; the protocol keeps it coherent.
	for n := 0; n < sys.Nodes(); n++ {
		node := n
		sys.Spawn(node, fmt.Sprintf("worker%d", node), func(t *dsmpm2.Thread) {
			for i := 0; i < 5; i++ {
				t.Acquire(lock)
				t.WriteUint64(x, t.ReadUint64(x)+1)
				t.Release(lock)
			}
		})
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	var final uint64
	sys.Spawn(0, "report", func(t *dsmpm2.Thread) { final = t.ReadUint64(x) })
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	st := sys.Stats()
	fmt.Printf("x = %d (started at 34, 4 nodes x 5 increments)\n", final)
	fmt.Printf("virtual time: %v\n", sys.Now())
	fmt.Printf("faults: %d read, %d write; page transfers: %d; invalidations: %d\n",
		st.ReadFaults, st.WriteFaults, st.PageSends, st.Invalidations)
}
