package sim

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestWorkloadDstNodes(t *testing.T) {
	w := &Workload{Rate: 20, PacketSize: 1, TTL: trace.Day, FixedDst: -1, DstNodes: []int{3, 5}}
	pkts := w.Schedule(rand.New(rand.NewSource(1)), 0, 3*trace.Day, 4)
	if len(pkts) == 0 {
		t.Fatal("no packets")
	}
	for _, p := range pkts {
		if p.DstNode != 3 && p.DstNode != 5 {
			t.Fatalf("DstNode = %d", p.DstNode)
		}
	}
}

func TestDeliverFromStation(t *testing.T) {
	tr := &trace.Trace{Name: "D", NumNodes: 1, NumLandmarks: 2}
	tr.Visits = []trace.Visit{{Node: 0, Landmark: 1, Start: 10, End: 20}}
	tr.SortVisits()
	delivered := false
	r := &hookRouter{onContact: func(ctx *Context, c *Contact) {
		st := ctx.Stations[c.Landmark]
		for _, p := range append([]*Packet(nil), st.Buffer.Packets()...) {
			if p.DstNode == c.Node.ID {
				delivered = ctx.DeliverFromStation(st, c.Node, p)
			}
		}
	}}
	eng := New(tr, r, nil, Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 1000, Unit: 1 << 40, LinkRate: 1})
	p := &Packet{ID: 0, Src: 1, Dst: 1, DstNode: 0, Size: 1, Created: 0, Expiry: 1000, NextHop: -1}
	eng.Context().Stations[1].Buffer.Add(p)
	res := eng.Run()
	if !delivered || !p.Done() {
		t.Error("node-destined packet not delivered from station")
	}
	_ = res
}

func TestUploadDoesNotDeliverNodePacketsAtLandmark(t *testing.T) {
	// A node-destined packet reaching its rendezvous landmark's station
	// must wait there, not count as delivered.
	tr := &trace.Trace{Name: "D", NumNodes: 1, NumLandmarks: 2}
	tr.Visits = []trace.Visit{{Node: 0, Landmark: 1, Start: 10, End: 20}}
	tr.SortVisits()
	r := &hookRouter{onContact: func(ctx *Context, c *Contact) {
		for _, p := range append([]*Packet(nil), c.Node.Buffer.Packets()...) {
			ctx.Upload(c, c.Node, p)
		}
	}}
	eng := New(tr, r, nil, Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 1000, Unit: 1 << 40, LinkRate: 1})
	p := &Packet{ID: 0, Src: 0, Dst: 1, DstNode: 99, Size: 1, Created: 0, Expiry: 1000, NextHop: -1}
	eng.Context().Nodes[0].Buffer.Add(p)
	eng.Run()
	if p.Delivered() {
		t.Error("node-destined packet delivered to a landmark")
	}
	if eng.Context().Stations[1].Buffer.Len() == 1 {
		return // waiting at the rendezvous as intended… until end-of-run accounting drops it
	}
}
