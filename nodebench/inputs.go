package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"eona/internal/core"
	"eona/internal/netsim"
	"eona/internal/qoe"
	"eona/internal/workload"
)

// The inputs every workload is built from. All of them are made ahead of
// the timed phases from the run's seed, so two runs with one seed send the
// program identical inputs and only the calls into the program are timed.

// reportMix shapes the A2I session reports: how many ISPs, CDNs and
// clusters the (ISP, CDN, cluster) groups come from, and how skewed their
// popularity is.
type reportMix struct {
	isps, cdns, clusters int
	// groupSkew is the Zipf-like exponent of the ISP and CDN weights.
	groupSkew float64
	// contentSkew is the catalog Zipf exponent; a session's cluster is its
	// content item modulo clusters, so clusters inherit the skew.
	contentSkew float64
}

// genReports makes n session reports. The arrival process, content
// popularity and ISP choice come from internal/workload, the score from
// qoe.DefaultModel.
func genReports(rng *rand.Rand, mix reportMix, n int) []core.QoERecord {
	isps := make([]string, mix.isps)
	for i := range isps {
		isps[i] = fmt.Sprintf("isp-%02d", i)
	}
	cdns := make([]string, mix.cdns)
	for i := range cdns {
		cdns[i] = fmt.Sprintf("cdn-%d", i)
	}
	ispChoice := workload.NewWeightedChoice(isps, zipfWeights(mix.isps, mix.groupSkew))
	cdnChoice := workload.NewWeightedChoice(cdns, zipfWeights(mix.cdns, mix.groupSkew))
	const perSecond = 50.0
	var sessions []workload.Session
	// The horizon's expected arrivals are well over n; a short draw
	// doubles it.
	for horizon := time.Duration(float64(n)/perSecond*1.5+60) * time.Second; len(sessions) < n; horizon *= 2 {
		sessions = workload.Generate(rng, workload.Spec{
			Rate:        workload.Constant(perSecond),
			MaxRate:     perSecond,
			Horizon:     horizon,
			CatalogSize: 5000,
			ZipfS:       mix.contentSkew,
			Groups:      ispChoice,
		})
	}
	model := qoe.DefaultModel()
	out := make([]core.QoERecord, n)
	for i := range out {
		s := sessions[i]
		m := qoe.SessionMetrics{
			StartupDelay:    time.Duration(200+rng.Intn(6000)) * time.Millisecond,
			PlayTime:        s.IntendedDuration,
			BufferingTime:   time.Duration(rng.ExpFloat64() * float64(4*time.Second)),
			AvgBitrate:      0.5e6 + rng.Float64()*7.5e6,
			BitrateSwitches: rng.Intn(6),
			CDNSwitches:     rng.Intn(2),
			Abandoned:       rng.Intn(10) == 0,
		}
		cluster := fmt.Sprintf("c%d", s.ContentID%mix.clusters)
		out[i] = core.RecordFrom(model, m, fmt.Sprintf("s%07d", i), appP,
			s.ClientGroup, cdnChoice.Pick(rng), cluster, s.Arrival)
	}
	return out
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// netShape is a many-ISP topology: each ISP has access links from its
// client node and peering links toward the CDNs. Every flow crosses one
// access and one peering link of one ISP, so each ISP is one allocator
// component and flowSkew makes their sizes skewed.
type netShape struct {
	isps, access, peering, cdns int
	seedFlows                   int
	flowSkew                    float64
}

// manyISPTopology builds the topology of a netShape with seeded capacities.
func manyISPTopology(rng *rand.Rand, sh netShape) *netsim.Topology {
	topo := netsim.NewTopology()
	for i := 0; i < sh.isps; i++ {
		clients := netsim.NodeID(fmt.Sprintf("clients-%02d", i))
		isp := netsim.NodeID(fmt.Sprintf("isp-%02d", i))
		for a := 0; a < sh.access; a++ {
			topo.AddLink(clients, isp, (200+float64(rng.Intn(800)))*1e6, 5*time.Millisecond, fmt.Sprintf("access-%02d-%d", i, a))
		}
		for p := 0; p < sh.peering; p++ {
			cdn := netsim.NodeID(fmt.Sprintf("cdn-%d", p%sh.cdns))
			topo.AddLink(isp, cdn, (100+float64(rng.Intn(500)))*1e6, 10*time.Millisecond, fmt.Sprintf("peer-%02d-%d", i, p))
		}
	}
	return topo
}

// demoTopology is eona-lg's demo network: a client access link into isp-a,
// two peering paths toward cdnX and a transit path toward cdnY.
func demoTopology() *netsim.Topology {
	topo := netsim.NewTopology()
	topo.AddLink("clients", "isp-a", 100e6, 5*time.Millisecond, "access")
	topo.AddLink("isp-a", "cdnX", 100e6, 10*time.Millisecond, "peering-B")
	topo.AddLink("isp-a", "cdnX", 400e6, 12*time.Millisecond, "peering-C")
	topo.AddLink("isp-a", "cdnY", 80e6, 15*time.Millisecond, "transit-Y")
	return topo
}

// flowSpec is one flow to start: its path as link IDs, demand and tag.
type flowSpec struct {
	links  []netsim.LinkID
	demand float64
	tag    string
}

// pathChooser picks flow paths over a topology. For a many-ISP topology a
// path is (access, peering) of one ISP, the ISP drawn with skew; for the
// demo topology it is eona-lg's access link plus one egress link.
type pathChooser struct {
	// first[g] and second[g] list group g's first-hop and second-hop links.
	first, second [][]netsim.LinkID
	cum           []float64 // cumulative group weights
}

func newPathChooser(topo *netsim.Topology, sh netShape) *pathChooser {
	pc := &pathChooser{}
	links := topo.Links()
	weights := []float64{1}
	if sh.isps == 0 { // the demo topology
		pc.first = [][]netsim.LinkID{{links[0].ID}}
		pc.second = [][]netsim.LinkID{{links[1].ID, links[2].ID, links[3].ID}}
	} else {
		per := sh.access + sh.peering
		for i := 0; i < sh.isps; i++ {
			var f, s []netsim.LinkID
			for a := 0; a < sh.access; a++ {
				f = append(f, links[i*per+a].ID)
			}
			for p := 0; p < sh.peering; p++ {
				s = append(s, links[i*per+sh.access+p].ID)
			}
			pc.first = append(pc.first, f)
			pc.second = append(pc.second, s)
		}
		weights = zipfWeights(sh.isps, sh.flowSkew)
	}
	total := 0.0
	for _, w := range weights {
		total += w
		pc.cum = append(pc.cum, total)
	}
	return pc
}

// group draws a group (ISP) index with the chooser's skew.
func (pc *pathChooser) group(rng *rand.Rand) int {
	x := rng.Float64() * pc.cum[len(pc.cum)-1]
	for i, c := range pc.cum {
		if x < c {
			return i
		}
	}
	return len(pc.cum) - 1
}

// path draws a path inside group g.
func (pc *pathChooser) path(rng *rand.Rand, g int) []netsim.LinkID {
	return []netsim.LinkID{pc.first[g][rng.Intn(len(pc.first[g]))], pc.second[g][rng.Intn(len(pc.second[g]))]}
}

// otherPath draws a path inside group g that differs from cur. Every group
// of both topologies has at least three paths.
func (pc *pathChooser) otherPath(rng *rand.Rand, g int, cur []netsim.LinkID) []netsim.LinkID {
	for {
		p := pc.path(rng, g)
		if p[0] != cur[0] || p[1] != cur[1] {
			return p
		}
	}
}

func demand(rng *rand.Rand) float64 { return (1 + rng.Float64()*7) * 1e6 }

// churnKind is one kind of session churn.
type churnKind uint8

const (
	churnStart churnKind = iota
	churnStop
	churnDemand
	churnPath
)

// churnOp is one pre-made session-churn mutation. slot indexes the flow
// slots the run keeps: a start fills slot, the rest act on the flow in it.
type churnOp struct {
	kind   churnKind
	slot   int
	links  []netsim.LinkID
	demand float64
}

// flowPlan is the seed flows plus a churn op sequence over them, made by
// simulating which slots hold a live flow so every op targets a live flow
// and no op is a no-op (a repeated demand, an unchanged path). Starts and
// stops alternate, so once the live flow count has reached the seed count
// (at least two) it stays there or one above: an op's cost, which grows
// with the flows it is allocated against, does not wander with the seed.
type flowPlan struct {
	seed []flowSpec
	ops  []churnOp
}

func genFlowPlan(rng *rand.Rand, pc *pathChooser, seedFlows, ops int) flowPlan {
	var fp flowPlan
	type slotState struct {
		group  int
		links  []netsim.LinkID
		demand float64
	}
	var slots []slotState
	var live []int // slot indexes holding a live flow
	for i := 0; i < seedFlows; i++ {
		g := pc.group(rng)
		s := slotState{group: g, links: pc.path(rng, g), demand: demand(rng)}
		fp.seed = append(fp.seed, flowSpec{links: s.links, demand: s.demand, tag: fmt.Sprintf("seed-%04d", i)})
		live = append(live, len(slots))
		slots = append(slots, s)
	}
	target := max(seedFlows, 2)
	for len(fp.ops) < ops {
		x := rng.Float64()
		switch {
		case len(live) < target || x < 0.6 && len(live) == target: // start
			g := pc.group(rng)
			s := slotState{group: g, links: pc.path(rng, g), demand: demand(rng)}
			fp.ops = append(fp.ops, churnOp{kind: churnStart, slot: len(slots), links: s.links, demand: s.demand})
			live = append(live, len(slots))
			slots = append(slots, s)
		case x < 0.6: // stop, from target+1 flows
			i := rng.Intn(len(live))
			fp.ops = append(fp.ops, churnOp{kind: churnStop, slot: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case x < 0.85: // set-demand
			sl := live[rng.Intn(len(live))]
			d := demand(rng)
			if d == slots[sl].demand {
				d += 1
			}
			slots[sl].demand = d
			fp.ops = append(fp.ops, churnOp{kind: churnDemand, slot: sl, demand: d})
		default: // re-path
			sl := live[rng.Intn(len(live))]
			p := pc.otherPath(rng, slots[sl].group, slots[sl].links)
			slots[sl].links = p
			fp.ops = append(fp.ops, churnOp{kind: churnPath, slot: sl, links: p})
		}
	}
	return fp
}

// impairment is one pre-made impairment: a throttle (factor in (0,1)) or a
// flap (factor 0) of a named link.
type impairment struct {
	flap   bool
	link   string
	factor float64
}

func genImpairments(rng *rand.Rand, topo *netsim.Topology, n int) []impairment {
	links := topo.Links()
	out := make([]impairment, n)
	for i := range out {
		l := links[rng.Intn(len(links))]
		out[i] = impairment{flap: i%2 == 1, link: l.Name}
		if !out[i].flap {
			out[i].factor = 0.1 + 0.8*rng.Float64()
		}
	}
	return out
}
