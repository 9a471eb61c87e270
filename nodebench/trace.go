package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/netsim"
	"eona/internal/projection"
	"eona/internal/wire"
)

// The traced run. Spans are recorded from the benchmark's own code around
// each call into a layer and kept in memory until the run ends. Where a
// layer sits behind another call, the run's recorded inputs are replayed
// into that layer's public function after the rounds: the journal's ops
// onto a serial Network, its records through a fold-only Engine, and its
// ingests into a separate Writer per SyncPolicy.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string][]float64
	gc0    uint32
	kept   keptRound
	e2e    map[string]metric // the traced run's own end-to-end figures
}

// keptRound is what the layer replays need from the last round.
type keptRound struct {
	dir     string
	offsets []int
	groups  int
	seedOps int
}

func newTracer(t0 time.Time) *tracer {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &tracer{t0: t0, counts: make(map[string][]float64), gc0: m.NumGC}
}

// add records a span and returns its ID. A nil tracer records nothing.
func (t *tracer) add(name string, start time.Time, d time.Duration) int {
	return t.child(0, name, start, d)
}

func (t *tracer) child(parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), Dur: int64(d)})
	return len(t.spans)
}

// count records one sample of a counted quantity.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = append(t.counts[name], v)
	}
}

func (t *tracer) bootSpans(bt bootTimes) {
	id := t.add("boot", bt.recoverAt, bt.materializeAt.Add(bt.materialize).Sub(bt.recoverAt))
	t.child(id, "journal.recover", bt.recoverAt, bt.recover)
	t.child(id, "projection.resume", bt.resumeAt, bt.resume)
	t.child(id, "journal.materialize", bt.materializeAt, bt.materialize)
	tail := 0
	for _, n := range bt.stats.TailFolded {
		tail += n
	}
	t.count("projection.tail_folded", float64(tail))
}

func (t *tracer) keep(dir string, offsets []int, groups, seedOps int) {
	t.kept = keptRound{dir: dir, offsets: offsets, groups: groups, seedOps: seedOps}
}

// us lists the durations of the spans named name, in microseconds.
func (t *tracer) us(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines, after a first line holding the
// traced run's own end-to-end figures (the tracing overhead is their
// difference from an untraced run's).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"end_to_end_traced": t.e2e}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceQuery times, next to a live query, the layer calls behind it: a
// snapshot read of every link, the QoE summaries and traffic estimates,
// their wire encoding and bearer-token authorization.
func (r *run) traceQuery(lv *live) {
	t := r.tr
	n := lv.n
	t.count("lookingglass.response_bytes", float64(lv.resp.body.Len()))

	t0 := time.Now()
	snap := n.shared.Snapshot()
	var sink float64
	for _, l := range n.topo.Links() {
		sink += snap.Capacity(l.ID) + snap.LinkRate(l.ID) + snap.Utilization(l.ID) + snap.Headroom(l.ID) +
			float64(snap.Congestion(l.ID)+netsim.CongestionLevel(snap.FlowsOn(l.ID)+snap.ActiveFlowsOn(l.ID))) + float64(snap.QueueDelay(l.ID))
	}
	t.add("netsim.snapshot_read", t0, time.Since(t0))

	var sums []core.QoESummary
	t0 = time.Now()
	n.eng.Read(func() { sums = n.qoe.Summaries() })
	t.add("core.summaries", t0, time.Since(t0))
	t0 = time.Now()
	n.eng.Read(func() { _ = n.qoe.TrafficEstimates(trafficNow) })
	t.add("core.traffic", t0, time.Since(t0))
	t0 = time.Now()
	if _, err := wire.Encode(wire.TypeQoESummaries, time.Now().UnixMilli(), sums); err != nil {
		r.failed++
	}
	t.add("lookingglass.encode", t0, time.Since(t0))

	const calls = 100
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if _, err := n.store.Authorize(token, auth.ScopeA2IQoE); err != nil {
			r.failed++
		}
	}
	t.count("auth.authorize_us", us(time.Since(t0))/calls)
	if sink < 0 {
		r.failed++
	}
}

// layerMetrics replays the last round's journal into each layer and
// assembles the per-layer metrics.
func (r *run) layerMetrics() (map[string]metric, error) {
	t := r.tr
	k := t.kept
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out := map[string]metric{
		"runtime.gc_cycles": {float64(m.NumGC - t.gc0), "count"},
		"core.groups":       {float64(k.groups), "count"},
	}
	put := func(name, unit string, xs []float64) { out[name] = metric{median(xs), unit} }

	rec, err := journal.Recover(k.dir)
	if err != nil {
		return nil, err
	}
	if err := r.replayNetwork(rec, out); err != nil {
		return nil, err
	}
	if err := r.replayFold(rec); err != nil {
		return nil, err
	}
	if err := r.replayJournal(rec, out); err != nil {
		return nil, err
	}
	for _, off := range r.historyOffsets(rec, k.offsets) {
		q := projection.NewQoE(collectorConfig())
		t0 := time.Now()
		if err := projection.MaterializeAt(rec, off, q); err != nil {
			return nil, err
		}
		t.add("projection.materialize", t0, time.Since(t0))
	}

	put("netsim.apply_us", "us", t.us("netsim.apply"))
	put("netsim.digest_us", "us", t.us("netsim.digest"))
	put("netsim.shared_op_us", "us", t.us("netsim.shared_op"))
	put("netsim.snapshot_read_us", "us", t.us("netsim.snapshot_read"))
	put("journal.append_ingest_us", "us", t.us("journal.append_ingest"))
	put("journal.append_op_us", "us", t.us("journal.append_op"))
	put("journal.append_checkpoint_us", "us", t.us("journal.append_checkpoint"))
	put("journal.recover_ms", "ms", scale(t.us("journal.recover"), 1e-3))
	put("journal.materialize_ms", "ms", scale(t.us("journal.materialize"), 1e-3))
	for _, pol := range []string{"append", "rotate", "never"} {
		put("journal.append_us.sync-"+pol, "us", t.us("journal.append_ingest.sync-"+pol))
	}
	put("projection.fold_ingest_us", "us", t.us("projection.fold_ingest"))
	put("projection.fold_op_us", "us", t.us("projection.fold_op"))
	put("projection.checkpoint_encode_us", "us", t.us("projection.checkpoint_encode"))
	put("projection.resume_ms", "ms", scale(t.us("projection.resume"), 1e-3))
	put("projection.tail_folded", "records", t.counts["projection.tail_folded"])
	put("projection.materialize_us", "us", t.us("projection.materialize"))
	put("core.summaries_us", "us", t.us("core.summaries"))
	put("core.traffic_us", "us", t.us("core.traffic"))
	put("lookingglass.encode_us", "us", t.us("lookingglass.encode"))
	put("lookingglass.response_bytes", "bytes", t.counts["lookingglass.response_bytes"])
	put("auth.authorize_us", "us", t.counts["auth.authorize_us"])
	put("ctlplane.inject_us", "us", t.us("ctlplane.inject"))
	put("ctlplane.links_us", "us", t.us("GET /v1/links"))
	put("ctlplane.stats_us", "us", t.us("GET /v1/stats"))
	put("runtime.alloc_bytes_per_ingest", "bytes", t.counts["runtime.alloc_bytes_per_ingest"])
	put("runtime.allocs_per_churn_op", "count", t.counts["runtime.allocs_per_churn_op"])
	return out, nil
}

func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// replayNetwork replays the journal's ops onto a serial Network, timing
// each op and the StateDigest taken after it, past the seed flows.
func (r *run) replayNetwork(rec *journal.Recovered, out map[string]metric) error {
	t, skip := r.tr, r.tr.kept.seedOps
	net := netsim.NewNetwork(rec.Topo.Build())
	rp := netsim.NewReplayer(net)
	var st0 netsim.Stats
	for i, or := range rec.Ops {
		if i == skip {
			st0 = net.Stats()
		}
		t0 := time.Now()
		if err := rp.Apply(or.Op); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		t1 := time.Now()
		d := net.StateDigest()
		t2 := time.Now()
		if d != or.Digest {
			return fmt.Errorf("replay op %d: digest %016x, journal %016x", i, d, or.Digest)
		}
		if i >= skip {
			t.add("netsim.apply", t0, t1.Sub(t0))
			t.add("netsim.digest", t1, t2.Sub(t1))
		}
	}
	ops := len(rec.Ops) - skip
	out["netsim.flows_recomputed_per_op"] = metric{float64(net.Stats().FlowsRecomputed-st0.FlowsRecomputed) / float64(ops), "flows/op"}
	return nil
}

// replayFold folds the journal's record stream through a fold-only engine
// with eona-lg's folders, timing each ingest and op fold and, on the
// checkpoint cadence, each folder set's EncodeState plus Fingerprint.
func (r *run) replayFold(rec *journal.Recovered) error {
	t := r.tr
	folders := []projection.Folder{projection.NewQoE(collectorConfig()), projection.NewHints(), projection.NewLinkUtil()}
	eng, err := projection.NewEngine(projection.Config{}, folders...)
	if err != nil {
		return err
	}
	var buf []byte
	folded := 0
	for _, e := range rec.Stream {
		t0 := time.Now()
		switch e.Kind {
		case journal.KindIngest:
			err = eng.AppendIngest(rec.Ingests[e.Index])
			t.add("projection.fold_ingest", t0, time.Since(t0))
		case journal.KindOp:
			or := rec.Ops[e.Index]
			err = eng.AppendOp(or.Op, or.Digest)
			t.add("projection.fold_op", t0, time.Since(t0))
		case journal.KindNetSnap:
			s := rec.Snapshots[e.Index]
			err = eng.AppendSnapshot(s.State, s.Digest)
		case journal.KindFault:
			err = eng.AppendFault(rec.Faults[e.Index])
		case journal.KindPoll:
			err = eng.AppendPoll(rec.Polls[e.Index])
		case journal.KindTopo:
			err = eng.AppendTopology(*rec.Topo)
		default:
			continue // checkpoint frames are not folded
		}
		if err != nil {
			return err
		}
		if folded++; folded%checkpointEvery == 0 {
			t0 := time.Now()
			for _, f := range folders {
				buf = f.EncodeState(buf[:0])
				_ = journal.Fingerprint(buf)
			}
			t.add("projection.checkpoint_encode", t0, time.Since(t0))
		}
	}
	return nil
}

// replayJournal appends the journal's ingests, ops and final checkpoint
// states to a separate Writer under SyncRotate, and a share of the ingests
// to one Writer per SyncPolicy. A Writer latches its first error and
// returns it from every later call, so each is checked once, at Err.
func (r *run) replayJournal(rec *journal.Recovered, out map[string]metric) error {
	t := r.tr
	const maxRecords = 4096
	dir := filepath.Join(r.root, "layer-journal")
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncRotate})
	if err != nil {
		return err
	}
	defer w.Close()
	size := func() float64 { b, _ := dirBytes(dir); return float64(b) }
	before := size()
	ingests := rec.Ingests[:min(len(rec.Ingests), maxRecords)]
	for _, in := range ingests {
		t0 := time.Now()
		_ = w.AppendIngest(in)
		t.add("journal.append_ingest", t0, time.Since(t0))
	}
	mid := size()
	ops := rec.Ops[:min(len(rec.Ops), maxRecords)]
	for _, or := range ops {
		t0 := time.Now()
		_ = w.AppendOp(or.Op, or.Digest)
		t.add("journal.append_op", t0, time.Since(t0))
	}
	after := size()
	out["journal.bytes_per_ingest"] = metric{(mid - before) / float64(len(ingests)), "bytes"}
	out["journal.bytes_per_op"] = metric{(after - mid) / float64(len(ops)), "bytes"}

	// The final state of eona-lg's folders, committed as one checkpoint.
	folders := []projection.Folder{projection.NewQoE(collectorConfig()), projection.NewHints(), projection.NewLinkUtil()}
	if err := projection.MaterializeAt(rec, len(rec.Stream), folders...); err != nil {
		return err
	}
	states := make([][]byte, len(folders))
	for i, f := range folders {
		states[i] = f.EncodeState(nil)
	}
	const commits = 16
	for c := 0; c < commits; c++ {
		t0 := time.Now()
		for i, f := range folders {
			_ = w.AppendCheckpoint(f.Name(), states[i])
		}
		t.add("journal.append_checkpoint", t0, time.Since(t0))
	}
	out["journal.checkpoint_bytes"] = metric{(size() - after) / commits, "bytes"}
	if err := w.Err(); err != nil {
		return fmt.Errorf("layer journal: %w", err)
	}

	for _, pol := range []journal.SyncPolicy{journal.SyncAppend, journal.SyncRotate, journal.SyncNever} {
		if err := r.replaySync(rec, pol); err != nil {
			return fmt.Errorf("layer journal %s: %w", pol, err)
		}
	}
	return nil
}

// replaySync times AppendIngest of the journal's first ingests under one
// SyncPolicy.
func (r *run) replaySync(rec *journal.Recovered, pol journal.SyncPolicy) error {
	n := 512
	if pol == journal.SyncAppend {
		n = 64 // an fsync per record
	}
	w, err := journal.Open(journal.Config{Dir: filepath.Join(r.root, "layer-sync-"+pol.String()), Sync: pol})
	if err != nil {
		return err
	}
	for _, in := range rec.Ingests[:min(len(rec.Ingests), n)] {
		t0 := time.Now()
		_ = w.AppendIngest(in)
		r.tr.add("journal.append_ingest.sync-"+pol.String(), t0, time.Since(t0))
	}
	if err := w.Err(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
