package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/netsim"
)

// liveRound is a node started on a fresh journal with its seed flows, and
// the inputs its live phase will send.
type liveRound struct {
	lv       *live
	in       roundInputs
	baseline uint64 // live heap before the node was built
	dir      string
}

// setup builds what the first round needs and returns the set-up time:
// the time since the process started, less the benchmark's own work in it
// (making inputs, heap samples, checks). What is left is building the
// first node with its topology, seed flows and warm-up reports, and for
// recovery writing the pre-written journal.
func (r *run) setup() (time.Duration, error) {
	if r.cfg.historyCycles > 0 {
		err := r.writeHistory()
		return time.Since(procStart) - r.offClock, err
	}
	lr, err := r.startLive()
	r.next = lr
	return time.Since(procStart) - r.offClock, err
}

func (r *run) round() error {
	if r.cfg.historyCycles > 0 {
		return r.recoveryRound()
	}
	lr := r.next
	r.next = nil
	if lr == nil {
		var err error
		if lr, err = r.startLive(); err != nil {
			return err
		}
	}
	return r.liveRound(lr)
}

// startLive starts a node on a fresh journal, seeds its flows and ingests
// the warm-up reports.
func (r *run) startLive() (*liveRound, error) {
	lr := &liveRound{dir: filepath.Join(r.root, "journal")}
	if err := os.RemoveAll(lr.dir); err != nil {
		return nil, err
	}
	r.aside(func() error {
		lr.baseline = liveHeap()
		lr.in = r.makeInputs(r.newTopo(), true)
		return nil
	})
	n, _, _, err := startNode(lr.dir, r.newTopo)
	if err != nil {
		return nil, err
	}
	lr.lv = newLive(n)
	if err := r.seedNode(lr.lv, lr.in); err != nil {
		n.stop()
		return nil, err
	}
	lr.in.warm = nil
	return lr, nil
}

// liveRound runs one a2i-ingest or i2a-churn round: the live phase, the
// checks on what it served, the heap and journal samples, then restarts
// over the journal it wrote and history queries on the last boot.
func (r *run) liveRound(lr *liveRound) error {
	lv := lr.lv
	if err := r.livePhase(lv, lr.in); err != nil {
		return err
	}
	if err := r.checkServed(lv); err != nil {
		return err
	}
	offsets := lr.in.offsets
	if r.tr != nil {
		r.tr.keep(lr.dir, offsets, len(lv.ref.groups), r.cfg.net.seedFlows)
	}
	lr.in, lv.ref = roundInputs{}, nil // release the generator's inputs
	r.heapSample(lr.baseline)
	crash, err := lv.n.stop()
	if err != nil {
		return err
	}
	if err := r.journalSample(lr.dir); err != nil {
		return err
	}
	n, rec, err := r.restarts(lr.dir, crash, lv.sent)
	if err != nil {
		return err
	}
	if err := r.history(n, rec, offsets); err != nil {
		n.stop()
		return err
	}
	_, err = n.stop()
	return err
}

// writeHistory is the recovery workload's set-up: a long journal of
// ingests, churn ops, impairments, partner polls and checkpoints, written
// by a live phase of historyCycles cycles without queries. It keeps the
// journal as the pristine copy every round starts from, with the state
// and counts every boot of it must reproduce.
func (r *run) writeHistory() error {
	r.pristine = filepath.Join(r.root, "pristine")
	hc := r.cfg
	hc.cycles = hc.historyCycles
	hc.queriesPerCycle = 0
	h := &run{cfg: hc, seed: r.seed, root: r.root}
	defer func() { r.offClock += h.offClock }()
	var in roundInputs
	h.aside(func() error { in = h.makeInputs(h.newTopo(), true); return nil })
	n, _, _, err := startNode(r.pristine, h.newTopo)
	if err != nil {
		return err
	}
	lv := newLive(n)
	lv.polls = hc.historyPollsPer
	if err := h.seedNode(lv, in); err != nil {
		n.stop()
		return err
	}
	if err := h.livePhase(lv, in); err != nil {
		n.stop()
		return err
	}
	if err := h.aside(func() error { return h.checkServed(lv) }); err != nil {
		n.stop()
		return err
	}
	if h.failed > 0 {
		n.stop()
		return fmt.Errorf("%d of %d operations failed while writing the journal", h.failed, h.attempted)
	}
	r.pristineRef, r.pristineCount, r.pristineFlows = lv.ref, lv.sent, lv.livePaths()
	r.pristineCrash, err = n.stop()
	return err
}

// recoveryRound boots a fresh copy of the pristine journal, answers the
// history queries, then runs a short live phase appending to the reopened
// journal, and boots that journal once more to check what was appended
// after the restart.
func (r *run) recoveryRound() error {
	work := filepath.Join(r.root, "work")
	if err := copyDir(r.pristine, work); err != nil {
		return err
	}
	baseline := liveHeap()
	in := r.makeInputs(r.newTopo(), false)
	n, rec, err := r.restarts(work, r.pristineCrash, r.pristineCount)
	if err != nil {
		return err
	}
	if err := r.history(n, rec, in.offsets); err != nil {
		n.stop()
		return err
	}
	lv := newLive(n)
	lv.ref = r.pristineRef.clone()
	lv.sent = r.pristineCount
	lv.known = r.pristineFlows
	if err := r.livePhase(lv, in); err != nil {
		n.stop()
		return err
	}
	if err := r.checkServed(lv); err != nil {
		n.stop()
		return err
	}
	if r.tr != nil {
		r.tr.keep(work, in.offsets, len(lv.ref.groups), r.cfg.net.seedFlows)
	}
	lv.ref = nil
	r.heapSample(baseline)
	crash, err := n.stop()
	if err != nil {
		return err
	}
	if err := r.journalSample(work); err != nil {
		return err
	}
	return r.verifyBoot(work, crash, lv.sent)
}

// poll is one partner poll result, as eona-lg journals them.
func poll(cycle, i int) journal.PollRecord {
	data, _ := json.Marshal([]core.PeeringInfo{{
		PeeringID: fmt.Sprintf("P%d", i), CDN: "cdn-0", Congestion: netsim.CongestionLevel(cycle % 4),
		HeadroomBps: float64(cycle) * 1e6, CapacityBps: 400e6, Current: i == 0,
	}})
	return journal.PollRecord{
		Source: fmt.Sprintf("http://partner-%d", i),
		At:     time.Unix(1_700_000_000+int64(cycle), 0).UTC(),
		Data:   data,
	}
}

func (a *refAgg) clone() *refAgg {
	c := &refAgg{groups: make(map[core.SummaryKey]*refGroup, len(a.groups)), sent: a.sent}
	for k, g := range a.groups {
		cp := *g
		c.groups[k] = &cp
	}
	return c
}
