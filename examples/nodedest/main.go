// Nodedest demonstrates the node-destination routing mode of
// Section IV-E.4: packets addressed to mobile nodes rather than landmarks.
// Each node summarises its most frequently visited landmarks; a packet is
// routed to the best of the destination's frequented landmarks and waits
// there until the destination connects.
//
//	go run repro/examples/nodedest
package main

import (
	"fmt"

	"repro"
)

func main() {
	tr := dtnflow.SmallTrace()
	fmt.Printf("trace: %s\n\n", tr.Summarize())

	cfg := dtnflow.DefaultFlowConfig()
	cfg.NodeRouting = true // route to the destination's top-3 frequented landmarks

	// Address every packet to one of the first five nodes.
	dsts := []int{0, 1, 2, 3, 4}
	s := dtnflow.Simulate(tr, dtnflow.NewDTNFLOWWith(cfg), dtnflow.SimOptions{
		RatePerDay: 150,
		TTL:        2 * dtnflow.Day,
		Unit:       12 * dtnflow.Hour,
		DstNodes:   dsts,
	})
	fmt.Printf("node-destined packets: delivered %d/%d (%.0f%%), mean delay %.1f h\n",
		s.Delivered, s.Generated, 100*s.SuccessRate, s.AvgDelay/3600)
	fmt.Println("\nPackets wait at the destination node's frequented landmarks —")
	fmt.Println("no node chasing, no need to know the destination's position.")
}
