package provision

import (
	"strings"
	"testing"

	"prdrb/internal/metrics"
	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
	"prdrb/internal/trace"
	"prdrb/internal/workloads"
)

func TestAnalyzeSimplePair(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	b := trace.NewBuilder("pair", 2)
	b.Send(0, 1, 10_000)
	b.Recv(1, 0)
	d, err := Analyze(topo, b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 -> node 1: one inter-router link (r0 -> r1) plus the terminal
	// exit link at r1.
	if d.UsedLinks != 2 {
		t.Fatalf("used links = %d, want 2 (%+v)", d.UsedLinks, d.Links)
	}
	if d.TotalBytes != 20_000 {
		t.Fatalf("total routed bytes = %d", d.TotalBytes)
	}
	if d.UsedRouters != 2 {
		t.Fatalf("used routers = %d", d.UsedRouters)
	}
	if d.Links[0].Bytes != 10_000 {
		t.Fatalf("per-link bytes = %d", d.Links[0].Bytes)
	}
}

func TestAnalyzeIncludesCollectives(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	b := trace.NewBuilder("coll", 4)
	b.Allreduce(4096)
	d, err := Analyze(topo, b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalBytes == 0 {
		t.Fatal("collective traffic not provisioned")
	}
}

func TestAnalyzeWithMapping(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	b := trace.NewBuilder("mapped", 2)
	b.Send(0, 1, 1024)
	b.Recv(1, 0)
	// Ranks on opposite corners: longer route, more links used.
	far, err := Analyze(topo, b.Build(), []topology.NodeID{0, 15})
	if err != nil {
		t.Fatal(err)
	}
	near, err := Analyze(topo, b.Build(), []topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if far.UsedLinks <= near.UsedLinks {
		t.Fatalf("corner mapping used %d links, adjacent %d", far.UsedLinks, near.UsedLinks)
	}
	if _, err := Analyze(topo, b.Build(), []topology.NodeID{0}); err == nil {
		t.Fatal("short mapping accepted")
	}
}

func TestBottlenecksAndFootprint(t *testing.T) {
	topo := topology.NewKAryNTree(4, 3)
	tr, err := workloads.ByName("pop", workloads.Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Analyze(topo, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := d.Bottlenecks(0)
	if len(all) != d.UsedLinks {
		t.Fatalf("Bottlenecks(0) = %d links, want all %d", len(all), d.UsedLinks)
	}
	hot := d.Bottlenecks(0.9)
	if len(hot) == 0 || len(hot) > len(all) {
		t.Fatalf("Bottlenecks(0.9) = %d links", len(hot))
	}
	fs := d.FootprintShare()
	if fs <= 0 || fs > 1 {
		t.Fatalf("footprint share = %v", fs)
	}
	rep := d.Report(topo, 5)
	if !strings.Contains(rep, "hottest links") {
		t.Fatalf("report: %s", rep)
	}
}

func TestNeighborWorkloadSmallFootprint(t *testing.T) {
	// Sweep3D is nearest-neighbour: on the fat tree it should touch far
	// fewer links than POP's scattered pattern at the same rank count —
	// the §2.2.6 "not suitable for optimization" observation in
	// provisioning terms.
	topo := topology.NewKAryNTree(4, 3)
	sw, _ := workloads.ByName("sweep3d", workloads.Options{Iterations: 2})
	pop, _ := workloads.ByName("pop", workloads.Options{Iterations: 2})
	dsw, err := Analyze(topo, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	dpop, err := Analyze(topo, pop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dsw.UsedLinks >= dpop.UsedLinks {
		t.Fatalf("sweep3d footprint %d not below pop %d", dsw.UsedLinks, dpop.UsedLinks)
	}
}

type detPolicy struct{}

func (detPolicy) Name() string { return "det" }
func (detPolicy) OutputPort(r *network.Router, pkt *network.Packet) int {
	if target, ok := pkt.CurrentTarget(); ok {
		return r.Net().Topo.NextHopToRouter(r.ID, target)
	}
	return r.Net().Topo.NextHop(r.ID, pkt.Dst)
}

func TestEnergyFromRun(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(16, 16, 0)
	net := network.MustNew(eng, topo, cfg, detPolicy{}, col)
	eng.Schedule(0, func(e *sim.Engine) {
		for i := 0; i < 10; i++ {
			net.NICs[0].Send(e, 15, 1024, network.MPISend, 0)
		}
	})
	eng.RunAll()
	var links network.LinkTable
	net.ReadLinks(eng.Now(), &links)
	rep := Energy(links.Links, eng.Now(), DefaultEnergyModel())
	if rep.Links == 0 {
		t.Fatal("no wired links counted")
	}
	if rep.ActiveJoules <= 0 || rep.TotalJoules <= rep.ActiveJoules {
		t.Fatalf("energy accounting wrong: %+v", rep)
	}
	// One flow on a 16-node mesh leaves most links idle.
	if rep.IdleLinks == 0 {
		t.Fatal("no idle links on a single-flow run")
	}
	if rep.SavingsPct() <= 0 || rep.SavingsPct() >= 100 {
		t.Fatalf("savings = %v%%", rep.SavingsPct())
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
	// Zero elapsed: empty report, no division blowups.
	if z := Energy(links.Links, 0, DefaultEnergyModel()); z.TotalJoules != 0 || z.SavingsPct() != 0 {
		t.Fatal("zero-elapsed energy not zero")
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	eng := sim.NewEngine()
	cfg := network.DefaultConfig()
	cfg.GenerateAcks = false
	col := metrics.NewCollector(16, 16, 0)
	net := network.MustNew(eng, topo, cfg, detPolicy{}, col)
	eng.Schedule(0, func(e *sim.Engine) { net.NICs[0].Send(e, 3, 2048, network.MPISend, 0) })
	eng.RunAll()
	var links network.LinkTable
	net.ReadLinks(eng.Now(), &links)
	var bytes int64
	for _, l := range links.Links {
		bytes += l.TxBytes
	}
	// 2048 B over: NIC link, r0->r1, r1->r2, r2->r3, r3->terminal = 5 links.
	want := int64(2048 * 5)
	if bytes != want {
		t.Fatalf("link bytes = %d, want %d", bytes, want)
	}
}
