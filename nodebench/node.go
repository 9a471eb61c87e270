package main

import (
	"fmt"
	"net/http"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/ctlplane"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// The node is composed the way cmd/eona-lg composes it, from the same
// public constructors and settings; README.md lists each setting so drift
// from eona-lg is visible.
const (
	appP            = "demo-vod"
	token           = "bench-token"
	checkpointEvery = 64 // eona-lg: projection.Config.CheckpointEvery
	snapshotEvery   = 32 // eona-lg: netsim.SharedConfig.SnapshotEvery
	trafficNow      = 200 * time.Second
)

// collectorConfig is eona-lg's collector policy.
func collectorConfig() core.CollectorConfig {
	return core.CollectorConfig{
		AppP:   appP,
		Policy: core.ExportPolicy{MinGroupSessions: 2},
		Window: 5 * time.Minute,
		Seed:   42,
	}
}

// node is one running EONA node: journal, projection engine with eona-lg's
// three folders, the shared network journaled through the engine, and the
// composed /v1 surface.
type node struct {
	jw      *journal.Writer
	eng     *projection.Engine
	qoe     *projection.QoE
	util    *projection.LinkUtil
	shared  *netsim.SharedNetwork
	topo    *netsim.Topology
	store   *auth.Store
	handler http.Handler
}

// bootTimes splits one boot into the three steps restart_ms counts.
type bootTimes struct {
	recover, resume, materialize       time.Duration
	recoverAt, resumeAt, materializeAt time.Time
	stats                              projection.ResumeStats
	// digest and linkRates are the materialized network's, read after
	// the clock stopped; zero on a journal without a network.
	digest    uint64
	linkRates []float64
}

func (b bootTimes) total() time.Duration { return b.recover + b.resume + b.materialize }

// startNode opens (or reopens) the journal in dir and builds a node over
// it, as eona-lg boots: Recover, Open, Resume the read models, then either
// replay the journaled network (MaterializeAt over every op) or, on a fresh
// journal, journal the topology from newTopo and start the seed flows
// through the shared network. It returns the recovered journal, which the
// history endpoint serves, and the boot's step times.
func startNode(dir string, newTopo func() *netsim.Topology) (*node, *journal.Recovered, bootTimes, error) {
	var bt bootTimes
	bt.recoverAt = time.Now()
	rec, err := journal.Recover(dir)
	bt.recover = time.Since(bt.recoverAt)
	if err != nil {
		return nil, nil, bt, err
	}
	n := &node{}
	n.jw, err = journal.Open(journal.Config{Dir: dir, Sync: journal.SyncRotate})
	if err != nil {
		return nil, nil, bt, err
	}
	n.qoe = projection.NewQoE(collectorConfig())
	n.util = projection.NewLinkUtil()
	n.eng, err = projection.NewEngine(projection.Config{Writer: n.jw, CheckpointEvery: checkpointEvery}, n.qoe, projection.NewHints(), n.util)
	if err != nil {
		n.jw.Close()
		return nil, nil, bt, err
	}
	bt.resumeAt = time.Now()
	bt.stats, err = n.eng.Resume(rec)
	bt.resume = time.Since(bt.resumeAt)
	if err != nil {
		n.jw.Close()
		return nil, nil, bt, err
	}
	if rec.Topo != nil {
		bt.materializeAt = time.Now()
		net, _, err := rec.MaterializeAt(len(rec.Ops))
		bt.materialize = time.Since(bt.materializeAt)
		if err != nil {
			n.jw.Close()
			return nil, nil, bt, err
		}
		bt.digest = net.StateDigest()
		for _, l := range net.Topology().Links() {
			bt.linkRates = append(bt.linkRates, net.LinkRate(l.ID))
		}
		n.topo = net.Topology()
		n.shared = netsim.NewShared(net, netsim.SharedConfig{Journal: n.eng, SnapshotEvery: snapshotEvery})
	} else {
		n.topo = newTopo()
		if err := n.eng.AppendTopology(netsim.ExportTopology(n.topo)); err != nil {
			n.jw.Close()
			return nil, nil, bt, err
		}
		n.shared = netsim.NewShared(netsim.NewNetwork(n.topo), netsim.SharedConfig{Journal: n.eng, SnapshotEvery: snapshotEvery})
	}
	ctl, err := ctlplane.New(ctlplane.Config{
		Shared:   n.shared,
		Topo:     n.topo,
		Engine:   n.eng,
		LinkUtil: n.util,
		QoE:      n.qoe,
		Clock:    faults.WallClock(time.Now()),
	})
	if err != nil {
		n.stop()
		return nil, nil, bt, err
	}
	n.store = auth.NewStore()
	n.store.Register(token, "bench-collaborator", auth.ScopeAdmin)
	// Far above the offered load: the limiter's path runs on every scoped
	// request but never refuses one.
	limiter := auth.NewRateLimiter(1e9, 1e9)
	q := n.qoe
	srv := lookingglass.NewServer(n.store, limiter, lookingglass.Sources{
		QoESummaries:     q.Summaries,
		TrafficEstimates: func() []core.TrafficEstimate { return q.TrafficEstimates(trafficNow) },
	})
	rt := srv.Routes()
	rt.HandleFunc("GET", "/v1/history/summaries", summariesHistory(rec))
	ctl.Register(rt)
	n.handler = rt.Handler()
	return n, rec, bt, nil
}

// seedFlows starts the seed flows through the shared network, like
// eona-lg's seedDemoFlows, so every seed op is journaled.
func (n *node) seedFlows(seed []flowSpec) []*netsim.Flow {
	flows := make([]*netsim.Flow, len(seed))
	for i, fs := range seed {
		flows[i] = n.shared.StartFlow(n.path(fs.links), fs.demand, fs.tag)
	}
	n.shared.Commit()
	return flows
}

func (n *node) path(ids []netsim.LinkID) netsim.Path {
	p := make(netsim.Path, len(ids))
	for i, id := range ids {
		p[i] = n.topo.Link(id)
	}
	return p
}

// crashState is what the live node held when it stopped: the reference a
// boot must reproduce.
type crashState struct {
	digest    uint64
	linkRates []float64
	summaries []core.QoESummary
}

// stop closes the shared network and the journal and returns the state at
// the crash point.
func (n *node) stop() (crashState, error) {
	net := n.shared.Close()
	cs := crashState{digest: net.StateDigest(), summaries: n.qoe.Summaries()}
	for _, l := range n.topo.Links() {
		cs.linkRates = append(cs.linkRates, net.LinkRate(l.ID))
	}
	jerr := n.shared.JournalError()
	if err := n.jw.Close(); err != nil {
		return cs, fmt.Errorf("close journal: %w", err)
	}
	if jerr != nil {
		return cs, fmt.Errorf("journal op sink: %w", jerr)
	}
	return cs, nil
}

// summariesHistory is eona-lg's GET /v1/history/summaries over the journal
// as recovered at boot.
func summariesHistory(rec *journal.Recovered) http.HandlerFunc {
	return lookingglass.HistoryHandler(
		func() int { return len(rec.Stream) },
		func(offset int) (any, error) {
			q := projection.NewQoE(collectorConfig())
			if err := projection.MaterializeAt(rec, offset, q); err != nil {
				return nil, err
			}
			return q.Summaries(), nil
		})
}
