package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// wlConfig is one workload: its network and the cadence of its live
// phase. A live phase is cycles cycles; each cycle restores the previous
// impairment and injects the next, then runs ingestSlices slices of
// reports, churnSlices slices of churn ops and queriesPerCycle queries
// from the query mix. Every mix holds /v1/stats, and every impairment
// reads /v1/links, so every workload sends every control-plane read.
type wlConfig struct {
	name string
	net  netShape // isps == 0: eona-lg's demo topology
	// warmReports are ingested after the seed flows, before the live
	// phase, so the live phase meets a read model that has seen most
	// groups rather than one growing from empty.
	warmReports                    int
	cycles                         int
	ingestSlices, churnSlices      int
	queriesPerCycle                int
	queryMix                       []string
	boots                          int
	historyCycles, historyPollsPer int // recovery: the pre-written journal
}

const (
	// Slices follow the engine's checkpoint cadence, which counts every
	// journaled record. sliceReports consecutive reports hold exactly one
	// checkpoint commit. sliceOps consecutive churn ops hold exactly two
	// network snapshots, so 66 records: one commit, or two in 2 of the 64
	// placements. The median slice therefore pays one commit and two
	// snapshots.
	sliceReports = checkpointEvery
	sliceOps     = 2 * snapshotEvery
	// historyQueries is the number of history queries per round.
	historyQueries = 64
)

// reports is the A2I report mix of every workload: several hundred
// (ISP, CDN, cluster) groups with skewed popularity.
var reports = reportMix{isps: 24, cdns: 4, clusters: 6, groupSkew: 1.0, contentSkew: 1.1}

var workloads = map[string]wlConfig{
	// An AppP node under a report storm: ingest dominates, A2I queries are
	// interleaved, the demo network churns rarely.
	"a2i-ingest": {
		name:            "a2i-ingest",
		net:             netShape{seedFlows: 12},
		warmReports:     8192,
		cycles:          16,
		ingestSlices:    8,
		churnSlices:     1,
		queriesPerCycle: 8,
		queryMix: []string{
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/traffic",
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/stats",
		},
		boots: 3,
	},
	// An InfP node under churn and chaos: a many-ISP network with skewed
	// component sizes, few reports.
	"i2a-churn": {
		name:            "i2a-churn",
		net:             netShape{isps: 40, access: 5, peering: 4, cdns: 3, seedFlows: 3000, flowSkew: 1.1},
		warmReports:     1024,
		cycles:          16,
		ingestSlices:    2,
		churnSlices:     2,
		queriesPerCycle: 32,
		queryMix:        []string{"/v1/links", "/v1/links", "/v1/links", "/v1/stats"},
		boots:           6,
	},
	// Restart and time travel over a long pre-written journal, then a short
	// live phase appending to the reopened journal.
	"recovery": {
		name:            "recovery",
		net:             netShape{isps: 20, access: 4, peering: 3, cdns: 3, seedFlows: 1000, flowSkew: 1.1},
		historyCycles:   64,
		historyPollsPer: 2,
		cycles:          8,
		ingestSlices:    4,
		churnSlices:     1,
		queriesPerCycle: 16,
		queryMix: []string{
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/links",
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/links",
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/links",
			"/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/a2i/summaries", "/v1/stats",
		},
		boots: 4,
	},
}

// samples collects one run's raw measurements.
type samples struct {
	ingestRate, churnRate []float64 // per slice
	queryUS, impairUS     []float64
	restartMS, historyUS  []float64
	heapMB, journalMB     []float64 // per round
}

// run is one benchmark process: one workload, one seed.
type run struct {
	cfg       wlConfig
	seed      int64
	root      string // this run's working directory
	tr        *tracer
	s         samples
	attempted int
	failed    int
	// offClock is the time spent making inputs, sampling the heap and
	// checking answers, which set-up time leaves out.
	offClock time.Duration

	next *liveRound // the node set-up built for the first round

	// Reference state carried from set-up to the rounds (recovery only).
	pristine      string
	pristineRef   *refAgg
	pristineCrash crashState
	pristineCount recordCounts
	pristineFlows map[netsim.FlowID][]netsim.LinkID

	// want caches the reference folds history answers are checked
	// against, for as long as the rounds recover the same journal.
	want historyCache
}

// historyCache holds reference folds by offset for one journal content,
// named by its fingerprint.
type historyCache struct {
	journal uint64
	folds   map[int][]core.QoESummary
}

// roundInputs is everything one live phase sends, made from the seed.
type roundInputs struct {
	warm    []core.QoERecord
	reports []core.QoERecord
	plan    flowPlan
	imps    []impairment
	// offsets place the history queries: query i asks for a stream
	// offset in the i'th of len(offsets) equal strata of the journal after
	// its seed flows, offsets[i] millionths into the stratum.
	offsets []int
}

func (r *run) rng(stream int64) *rand.Rand { return rand.New(rand.NewSource(r.seed*1000003 + stream)) }

func (r *run) newTopo() *netsim.Topology {
	if r.cfg.net.isps == 0 {
		return demoTopology()
	}
	return manyISPTopology(r.rng(1), r.cfg.net)
}

// makeInputs builds one live phase's inputs. Every round of a run sends the
// same inputs, so rounds are repeats of one measurement.
func (r *run) makeInputs(topo *netsim.Topology, withSeed bool) roundInputs {
	c := r.cfg
	var in roundInputs
	// A live phase without seed flows continues a journal written from
	// the other streams, so its inputs differ from that journal's.
	seedFlows, stream := c.net.seedFlows, int64(0)
	if !withSeed {
		seedFlows, stream = 0, 10
	}
	all := genReports(r.rng(stream+2), reports, c.warmReports+c.cycles*c.ingestSlices*sliceReports)
	in.warm, in.reports = all[:c.warmReports], all[c.warmReports:]
	in.plan = genFlowPlan(r.rng(stream+3), newPathChooser(topo, c.net), seedFlows, c.cycles*c.churnSlices*sliceOps)
	in.imps = genImpairments(r.rng(stream+4), topo, c.cycles)
	hr := r.rng(5)
	for i := 0; i < historyQueries; i++ {
		in.offsets = append(in.offsets, hr.Intn(1_000_000))
	}
	return in
}

// live is the state of one live phase: the node, the flow slots and what
// was appended.
type live struct {
	n        *node
	slots    []*netsim.Flow
	links    [][]netsim.LinkID // current path per slot
	ref      *refAgg
	sent     recordCounts
	base     map[string]float64 // construction capacity per link name
	activeID int                // impairment to restore, 0 if none
	resp     respWriter
	reqs     map[string]*http.Request
	known    map[netsim.FlowID][]netsim.LinkID // flows the benchmark did not start here
	polls    int                               // partner polls appended per cycle
}

func newLive(n *node) *live {
	lv := &live{n: n, ref: newRefAgg(), base: make(map[string]float64), reqs: make(map[string]*http.Request)}
	lv.resp.hdr = make(http.Header)
	for _, l := range n.topo.Links() {
		lv.base[l.Name] = l.Capacity
	}
	return lv
}

// get returns the reusable GET request for path.
func (lv *live) get(path string) *http.Request {
	req := lv.reqs[path]
	if req == nil {
		req = lv.request("GET", path, nil)
		lv.reqs[path] = req
	}
	return req
}

func (lv *live) request(method, target string, body []byte) *http.Request {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	return req
}

// serve sends one request through the composed handler and returns its
// duration; the response is left in lv.resp.
func (r *run) serve(lv *live, req *http.Request, span string) time.Duration {
	lv.resp.reset()
	t0 := time.Now()
	lv.n.handler.ServeHTTP(&lv.resp, req)
	d := time.Since(t0)
	r.tr.add(span, t0, d)
	r.attempted++
	if lv.resp.code < 200 || lv.resp.code > 299 {
		r.failed++
	}
	return d
}

// seedNode starts the seed flows (journaled, like eona-lg's demo seeding) and
// ingests the warm-up reports.
func (r *run) seedNode(lv *live, in roundInputs) error {
	lv.slots = lv.n.seedFlows(in.plan.seed)
	for _, rep := range in.warm {
		if err := lv.n.eng.AppendIngest(rep); err != nil {
			return fmt.Errorf("warm-up ingest: %w", err)
		}
	}
	r.aside(func() error {
		for _, fs := range in.plan.seed {
			lv.links = append(lv.links, fs.links)
		}
		for _, rep := range in.warm {
			lv.ref.add(rep)
		}
		return nil
	})
	lv.sent.ops += len(in.plan.seed)
	lv.sent.ingests += len(in.warm)
	return nil
}

// aside runs f, the benchmark's own work, and adds its duration to
// r.offClock.
func (r *run) aside(f func() error) error {
	t0 := time.Now()
	err := f()
	r.offClock += time.Since(t0)
	return err
}

// livePhase runs the workload's cycles on a started node.
func (r *run) livePhase(lv *live, in roundInputs) error {
	c := r.cfg
	nextReport, nextOp := 0, 0
	runtime.GC()
	for cyc := 0; cyc < c.cycles; cyc++ {
		if err := r.impair(lv, in.imps[cyc]); err != nil {
			return err
		}
		for s := 0; s < c.ingestSlices; s++ {
			r.ingestSlice(lv, in.reports[nextReport:nextReport+sliceReports])
			nextReport += sliceReports
		}
		for s := 0; s < c.churnSlices; s++ {
			r.churnSlice(lv, in.plan.ops[nextOp:nextOp+sliceOps])
			nextOp += sliceOps
		}
		for p := 0; p < lv.polls; p++ {
			if err := lv.n.eng.AppendPoll(poll(cyc, p)); err != nil {
				return fmt.Errorf("append poll: %w", err)
			}
			lv.sent.polls++
		}
		for q := 0; q < c.queriesPerCycle; q++ {
			path := c.queryMix[q%len(c.queryMix)]
			r.s.queryUS = append(r.s.queryUS, us(r.serve(lv, lv.get(path), "GET "+path)))
			if r.tr != nil {
				r.traceQuery(lv)
			}
		}
	}
	return r.restore(lv)
}

func (r *run) ingestSlice(lv *live, batch []core.QoERecord) {
	eng := lv.n.eng
	failed := 0
	var ms0 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	for i := range batch {
		if eng.AppendIngest(batch[i]) != nil {
			failed++
		}
	}
	d := time.Since(t0)
	if r.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.tr.count("runtime.alloc_bytes_per_ingest", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(batch)))
	}
	r.tr.add("ingest_slice", t0, d)
	r.s.ingestRate = append(r.s.ingestRate, float64(len(batch))/d.Seconds())
	r.attempted += len(batch)
	r.failed += failed
	for i := range batch {
		lv.ref.add(batch[i])
	}
	lv.sent.ingests += len(batch)
}

func (r *run) churnSlice(lv *live, ops []churnOp) {
	sh := lv.n.shared
	// Resolve paths and tags before the clock starts.
	paths := make([]netsim.Path, len(ops))
	tags := make([]string, len(ops))
	for i, op := range ops {
		if op.kind == churnStart || op.kind == churnPath {
			paths[i] = lv.n.path(op.links)
		}
		if op.kind == churnStart {
			tags[i] = "churn-" + strconv.Itoa(op.slot)
		}
	}
	for len(lv.slots) <= maxSlot(ops) {
		lv.slots = append(lv.slots, nil)
		lv.links = append(lv.links, nil)
	}
	var ms0 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	for i, op := range ops {
		var ts time.Time
		if r.tr != nil {
			ts = time.Now()
		}
		switch op.kind {
		case churnStart:
			lv.slots[op.slot] = sh.StartFlow(paths[i], op.demand, tags[i])
		case churnStop:
			sh.StopFlow(lv.slots[op.slot])
		case churnDemand:
			sh.SetDemand(lv.slots[op.slot], op.demand)
		case churnPath:
			sh.SetPath(lv.slots[op.slot], paths[i])
		}
		if r.tr != nil {
			r.tr.add("netsim.shared_op", ts, time.Since(ts))
		}
	}
	d := time.Since(t0)
	if r.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.tr.count("runtime.allocs_per_churn_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(ops)))
	}
	r.tr.add("churn_slice", t0, d)
	r.s.churnRate = append(r.s.churnRate, float64(len(ops))/d.Seconds())
	r.attempted += len(ops)
	for _, op := range ops {
		switch op.kind {
		case churnStart, churnPath:
			lv.links[op.slot] = op.links
		case churnStop:
			lv.links[op.slot] = nil
		}
	}
	lv.sent.ops += len(ops)
}

func maxSlot(ops []churnOp) int {
	m := -1
	for _, op := range ops {
		m = max(m, op.slot)
	}
	return m
}

// impair restores the active impairment, then injects imp through POST
// /v1/impairments and reads GET /v1/links, which must show the applied
// capacity. impair_visible is the time spent in those two calls.
func (r *run) impair(lv *live, imp impairment) error {
	if err := r.restore(lv); err != nil {
		return err
	}
	body := fmt.Sprintf(`{"kind":"link-throttle","link":%q,"factor":%v}`, imp.link, imp.factor)
	if imp.flap {
		body = fmt.Sprintf(`{"kind":"link-flap","link":%q}`, imp.link)
	}
	post := lv.request("POST", "/v1/impairments", []byte(body))
	want := throttled(lv.base[imp.link], imp.factor)
	d := r.serve(lv, post, "ctlplane.inject")
	if lv.resp.code != http.StatusCreated {
		return fmt.Errorf("inject %s: status %d: %s", imp.link, lv.resp.code, lv.resp.body.String())
	}
	var created struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(lv.resp.body.Bytes(), &created); err != nil {
		return fmt.Errorf("inject response: %w", err)
	}
	lv.activeID = created.ID
	// The POST returns once the capacity change committed, so the next
	// read must show it. Set-up time leaves this read out with the checks:
	// it shows the impairment, it writes no history.
	t1 := time.Now()
	d += r.serve(lv, lv.get("/v1/links"), "GET /v1/links")
	r.offClock += time.Since(t1)
	if err := r.aside(func() error {
		return checkLinkCapacity(decodeLinks(lv.resp.body.Bytes()), imp.link, want)
	}); err != nil {
		return err
	}
	r.s.impairUS = append(r.s.impairUS, us(d))
	lv.sent.faults++
	lv.sent.ops++
	return r.aside(func() error { return r.checkAllocation(lv) })
}

// restore removes the active impairment through DELETE /v1/impairments.
func (r *run) restore(lv *live) error {
	if lv.activeID == 0 {
		return nil
	}
	del := lv.request("DELETE", "/v1/impairments?id="+strconv.Itoa(lv.activeID), nil)
	r.serve(lv, del, "ctlplane.restore")
	if lv.resp.code != http.StatusOK {
		return fmt.Errorf("restore %d: status %d", lv.activeID, lv.resp.code)
	}
	lv.activeID = 0
	lv.sent.faults++
	lv.sent.ops++
	return r.aside(func() error { return r.checkAllocation(lv) })
}

func decodeLinks(body []byte) []linkRow {
	var v struct {
		Links []linkRow `json:"links"`
	}
	_ = json.Unmarshal(body, &v) // a bad body yields no rows, which the check reports
	return v.Links
}

// checkAllocation verifies the max-min certificate on the latest snapshot.
func (r *run) checkAllocation(lv *live) error {
	snap := lv.n.shared.Snapshot()
	paths := lv.livePaths()
	var flows []flowObs
	var missing error
	snap.Flows(func(v netsim.FlowView) {
		l, ok := paths[v.ID]
		if !ok && missing == nil {
			missing = fmt.Errorf("max-min: snapshot has flow %d the benchmark did not start", v.ID)
		}
		flows = append(flows, flowObs{id: v.ID, rate: v.Rate, demand: v.Demand, links: l})
	})
	if missing != nil {
		return missing
	}
	if len(flows) != len(paths) {
		return fmt.Errorf("max-min: snapshot has %d flows, the benchmark has %d live", len(flows), len(paths))
	}
	caps := make([]float64, snap.NumLinks())
	for i := range caps {
		caps[i] = snap.Capacity(netsim.LinkID(i))
	}
	return checkMaxMin(flows, caps)
}

// livePaths lists the live flows' paths by flow ID.
func (lv *live) livePaths() map[netsim.FlowID][]netsim.LinkID {
	out := make(map[netsim.FlowID][]netsim.LinkID, len(lv.known)+len(lv.slots))
	for id, l := range lv.known {
		out[id] = l
	}
	for i, f := range lv.slots {
		if f != nil && lv.links[i] != nil {
			out[f.ID] = lv.links[i]
		}
	}
	return out
}

// checkServed checks the served summaries and the ingest count against the
// benchmark's own aggregate, through an untimed GET /v1/a2i/summaries.
func (r *run) checkServed(lv *live) error {
	lv.resp.reset()
	lv.n.handler.ServeHTTP(&lv.resp, lv.request("GET", "/v1/a2i/summaries", nil))
	if lv.resp.code != http.StatusOK {
		return fmt.Errorf("summaries: status %d", lv.resp.code)
	}
	var env struct {
		Payload []core.QoESummary `json:"payload"`
	}
	if err := json.Unmarshal(lv.resp.body.Bytes(), &env); err != nil {
		return fmt.Errorf("summaries: decode: %w", err)
	}
	if err := checkSummaries(env.Payload, lv.ref, collectorConfig().Policy.MinGroupSessions); err != nil {
		return err
	}
	var got uint64
	lv.n.eng.Read(func() { got = lv.n.qoe.Ingested() })
	return checkIngested(got, lv.ref.sent)
}

// boot restarts a node over dir, checks it against the crash point and
// records restart_ms. The node is returned running.
func (r *run) boot(dir string, crash crashState, want recordCounts) (*node, *journal.Recovered, error) {
	runtime.GC()
	n, rec, bt, err := startNode(dir, r.newTopo)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	r.s.restartMS = append(r.s.restartMS, ms(bt.total()))
	if r.tr != nil {
		r.tr.bootSpans(bt)
	}
	if err := checkBoot(n, rec, bt, crash, want); err != nil {
		n.stop()
		return nil, nil, err
	}
	return n, rec, nil
}

// verifyBoot boots the journal in dir once, untimed, checks it against the
// crash point and stops it.
func (r *run) verifyBoot(dir string, crash crashState, want recordCounts) error {
	n, rec, bt, err := startNode(dir, r.newTopo)
	r.attempted++
	if err != nil {
		r.failed++
		return fmt.Errorf("check boot: %w", err)
	}
	err = checkBoot(n, rec, bt, crash, want)
	if _, serr := n.stop(); err == nil {
		err = serr
	}
	return err
}

// checkBoot checks a booted node against the crash point: the recovered
// network, the resumed summaries and the recovered record counts.
func checkBoot(n *node, rec *journal.Recovered, bt bootTimes, crash crashState, want recordCounts) error {
	if err := checkBootNetwork(crash, bt.digest, bt.linkRates); err != nil {
		return err
	}
	var resumed []core.QoESummary
	n.eng.Read(func() { resumed = n.qoe.Summaries() })
	if err := checkSameSummaries("boot: resumed summaries", resumed, crash.summaries); err != nil {
		return err
	}
	return checkCounts(recordCounts{len(rec.Ingests), len(rec.Ops), len(rec.Faults), len(rec.Polls)}, want)
}

// restarts boots the journal in dir r.cfg.boots times and returns the last
// node running, with the journal it recovered.
func (r *run) restarts(dir string, crash crashState, want recordCounts) (*node, *journal.Recovered, error) {
	for b := 0; ; b++ {
		n, rec, err := r.boot(dir, crash, want)
		if err != nil || b == r.cfg.boots-1 {
			return n, rec, err
		}
		if _, err := n.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// history sends the history queries to a booted node and checks each
// answer against a fold of the same journal prefix from its first record.
func (r *run) history(n *node, rec *journal.Recovered, offsets []int) error {
	if fp := fingerprint(rec); r.want.folds == nil || r.want.journal != fp {
		r.want = historyCache{journal: fp, folds: make(map[int][]core.QoESummary)}
	}
	lv := &live{n: n, reqs: make(map[string]*http.Request)}
	lv.resp.hdr = make(http.Header)
	runtime.GC()
	for _, off := range r.historyOffsets(rec, offsets) {
		req := lv.request("GET", "/v1/history/summaries?offset="+strconv.Itoa(off), nil)
		r.s.historyUS = append(r.s.historyUS, us(r.serve(lv, req, "history")))
		if lv.resp.code != http.StatusOK {
			return fmt.Errorf("history offset %d: status %d", off, lv.resp.code)
		}
		var got struct {
			Offset int               `json:"offset"`
			Data   []core.QoESummary `json:"data"`
		}
		if err := json.Unmarshal(lv.resp.body.Bytes(), &got); err != nil {
			return fmt.Errorf("history offset %d: decode: %w", off, err)
		}
		want, ok := r.want.folds[off]
		if !ok {
			q := projection.NewQoE(collectorConfig())
			if err := projection.Fold(rec, q, off); err != nil {
				return fmt.Errorf("history offset %d: reference fold: %w", off, err)
			}
			want = q.Summaries()
			r.want.folds[off] = want
		}
		if got.Offset != off {
			return fmt.Errorf("history: asked offset %d, answered %d", off, got.Offset)
		}
		if err := checkSameSummaries(fmt.Sprintf("history offset %d", off), got.Data, want); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint hashes what a QoE fold of rec reads: the record order and
// every ingest record.
func fingerprint(rec *journal.Recovered) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range rec.Stream {
		binary.LittleEndian.PutUint64(b[:], uint64(e.Kind)<<32|uint64(uint32(e.Index)))
		h.Write(b[:])
	}
	for _, in := range rec.Ingests {
		fmt.Fprintf(h, "%+v", in)
	}
	return h.Sum64()
}

// historyOffsets turns the strata positions into stream offsets past the
// seed flows, where the journal's read models change.
func (r *run) historyOffsets(rec *journal.Recovered, strata []int) []int {
	start := 0
	for i, e := range rec.Stream {
		if e.Kind == journal.KindOp && int(e.Index) == r.cfg.net.seedFlows {
			start = i
			break
		}
	}
	span := int64(len(rec.Stream) - start)
	out := make([]int, len(strata))
	for i, u := range strata {
		out[i] = start + int((int64(i)*1_000_000+int64(u))*span/(int64(len(strata))*1_000_000))
	}
	return out
}

// heapSample records the live heap after a forced GC, less the heap that
// was live before the node was built.
func (r *run) heapSample(baseline uint64) {
	r.s.heapMB = append(r.s.heapMB, float64(int64(liveHeap())-int64(baseline))/(1<<20))
}

// liveHeap is the heap still reachable after two forced collections (the
// second frees what the first's finalizers and pool clearing released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// journalSample records the journal's bytes on disk.
func (r *run) journalSample(dir string) error {
	b, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.s.journalMB = append(r.s.journalMB, float64(b)/(1<<20))
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
