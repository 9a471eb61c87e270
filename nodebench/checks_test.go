package main

import (
	"math/rand"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/netsim"
)

// Each check must accept the program's correct output and reject a
// deliberately broken one.

func TestCheckSummariesRejectsBrokenServing(t *testing.T) {
	reports := genReports(rand.New(rand.NewSource(1)), reportMix{isps: 4, cdns: 2, clusters: 3, groupSkew: 1, contentSkew: 1.1}, 2000)
	ref := newRefAgg()
	col := core.NewA2ICollector(collectorConfig())
	for _, r := range reports {
		ref.add(r)
		col.Ingest(r)
	}
	served := col.Summaries()
	if err := checkSummaries(served, ref, 2); err != nil {
		t.Fatalf("correct summaries rejected: %v", err)
	}
	broken := map[string]func([]core.QoESummary) []core.QoESummary{
		"missing group": func(s []core.QoESummary) []core.QoESummary { return s[1:] },
		"session count off by one": func(s []core.QoESummary) []core.QoESummary {
			s[0].Sessions++
			return s
		},
		"mean off by 1e-6 relative": func(s []core.QoESummary) []core.QoESummary {
			s[len(s)-1].MeanBitrateBps *= 1 + 1e-6
			return s
		},
		"suppressed group served": func(s []core.QoESummary) []core.QoESummary {
			return append(s, core.QoESummary{Key: core.SummaryKey{ClientISP: "nobody"}, Sessions: 1})
		},
		"group served twice": func(s []core.QoESummary) []core.QoESummary {
			s[1] = s[0]
			return s
		},
	}
	for name, breakIt := range broken {
		if err := checkSummaries(breakIt(append([]core.QoESummary(nil), served...)), ref, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckIngestedRejectsLostReport(t *testing.T) {
	if err := checkIngested(100, 100); err != nil {
		t.Fatal(err)
	}
	if checkIngested(99, 100) == nil {
		t.Fatal("a lost report was accepted")
	}
}

// allocation runs flows over a small topology through the real allocator
// and returns what a snapshot shows, with the flows' paths.
func allocation(t *testing.T) ([]flowObs, []float64) {
	topo := netsim.NewTopology()
	a := topo.AddLink("c", "i", 10e6, time.Millisecond, "access")
	p := topo.AddLink("i", "x", 4e6, time.Millisecond, "peer-x")
	q := topo.AddLink("i", "y", 100e6, time.Millisecond, "peer-y")
	net := netsim.NewNetwork(topo)
	paths := map[netsim.FlowID][]netsim.LinkID{}
	for i, spec := range []struct {
		path   netsim.Path
		demand float64
	}{
		{netsim.Path{a, p}, 8e6}, {netsim.Path{a, p}, 1e6}, {netsim.Path{a, q}, 9e6}, {netsim.Path{a, q}, 0.5e6},
	} {
		f := net.StartFlow(spec.path, spec.demand, string(rune('a'+i)))
		paths[f.ID] = []netsim.LinkID{spec.path[0].ID, spec.path[1].ID}
	}
	snap := net.Snapshot()
	var flows []flowObs
	snap.Flows(func(v netsim.FlowView) {
		flows = append(flows, flowObs{id: v.ID, rate: v.Rate, demand: v.Demand, links: paths[v.ID]})
	})
	caps := make([]float64, snap.NumLinks())
	for i := range caps {
		caps[i] = snap.Capacity(netsim.LinkID(i))
	}
	return flows, caps
}

func TestCheckMaxMinRejectsUnfairAllocation(t *testing.T) {
	flows, caps := allocation(t)
	if err := checkMaxMin(flows, caps); err != nil {
		t.Fatalf("the allocator's max-min allocation rejected: %v", err)
	}
	over := append([]flowObs(nil), flows...)
	over[0].rate *= 2 // pushes a link over its capacity
	if checkMaxMin(over, caps) == nil {
		t.Error("an over-capacity allocation was accepted")
	}
	starved := append([]flowObs(nil), flows...)
	for i := range starved {
		if starved[i].rate < starved[i].demand {
			starved[i].rate /= 2 // leaves its bottleneck unsaturated
			break
		}
	}
	if checkMaxMin(starved, caps) == nil {
		t.Error("a flow below demand with no saturated bottleneck was accepted")
	}
	// Two flows on one saturated link: the one below demand must have the
	// link's largest rate; shift capacity from it to the other.
	unfair := []flowObs{
		{id: 1, rate: 3e6, demand: 8e6, links: []netsim.LinkID{1}},
		{id: 2, rate: 1e6, demand: 8e6, links: []netsim.LinkID{1}},
	}
	if checkMaxMin(unfair, []float64{100e6, 4e6}) == nil {
		t.Error("an unfair split of a saturated link was accepted")
	}
}

func TestCheckLinkCapacityRejectsUnappliedThrottle(t *testing.T) {
	want := throttled(400e6, 0.25)
	rows := []linkRow{{Name: "peer-00-0", CapacityBps: 100e6}, {Name: "peer-00-1", CapacityBps: 200e6}}
	if err := checkLinkCapacity(rows, "peer-00-0", want); err != nil {
		t.Fatal(err)
	}
	if checkLinkCapacity(rows, "peer-00-1", want) == nil {
		t.Error("an unthrottled link was accepted")
	}
	if checkLinkCapacity(rows, "peer-99-0", want) == nil {
		t.Error("a missing link was accepted")
	}
	if throttled(400e6, 0) != 1 {
		t.Error("a flap must floor the capacity at 1 bps")
	}
}

func TestCheckBootNetworkRejectsDivergedRecovery(t *testing.T) {
	live := crashState{digest: 0xabc, linkRates: []float64{1, 2, 3}}
	if err := checkBootNetwork(live, 0xabc, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if checkBootNetwork(live, 0xabd, []float64{1, 2, 3}) == nil {
		t.Error("a different digest was accepted")
	}
	if checkBootNetwork(live, 0xabc, []float64{1, 2, 3.0000000001}) == nil {
		t.Error("a different link rate was accepted")
	}
	if checkBootNetwork(live, 0xabc, []float64{1, 2}) == nil {
		t.Error("a missing link was accepted")
	}
}

func TestCheckSameSummariesRejectsDrift(t *testing.T) {
	a := []core.QoESummary{{Key: core.SummaryKey{ClientISP: "isp-00"}, Sessions: 3, MeanScore: 71.5}}
	b := []core.QoESummary{{Key: core.SummaryKey{ClientISP: "isp-00"}, Sessions: 3, MeanScore: 71.5}}
	if err := checkSameSummaries("resumed", a, b); err != nil {
		t.Fatal(err)
	}
	if checkSameSummaries("empty", nil, []core.QoESummary{}) != nil {
		t.Error("nil and empty differ only in form")
	}
	b[0].MeanScore = 71.50000000001
	if checkSameSummaries("resumed", a, b) == nil {
		t.Error("a drifted mean was accepted")
	}
	if checkSameSummaries("history", a, nil) == nil {
		t.Error("a missing answer was accepted")
	}
}

func TestCheckCountsRejectsLostRecord(t *testing.T) {
	want := recordCounts{ingests: 10, ops: 5, faults: 2, polls: 1}
	if err := checkCounts(want, want); err != nil {
		t.Fatal(err)
	}
	for _, got := range []recordCounts{
		{ingests: 9, ops: 5, faults: 2, polls: 1},
		{ingests: 10, ops: 4, faults: 2, polls: 1},
		{ingests: 10, ops: 5, faults: 1, polls: 1},
		{ingests: 10, ops: 5, faults: 2, polls: 0},
	} {
		if checkCounts(got, want) == nil {
			t.Errorf("%+v accepted against %+v", got, want)
		}
	}
}
