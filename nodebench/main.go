// Command nodebench is the end-to-end benchmark of an EONA node: a node
// composed the way cmd/eona-lg composes it (journal, projection engine,
// journaled shared network, looking glass and control plane on one /v1
// surface), driven in process by one closed-loop generator through three
// traffic mixes. See README.md for the workloads, metrics and figures.
//
//	nodebench --workload a2i-ingest --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: whether every
// correctness check held, the operations attempted and failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// procStart is read first, so setup_s counts from the process's start.
var procStart = time.Now()

func main() {
	wl := flag.String("workload", "", "a2i-ingest, i2a-churn or recovery")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "how long the rounds are repeated")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/nodebench", "directory for run journals and spans files")
	flag.Parse()

	cfg, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "nodebench: need --workload a2i-ingest|i2a-churn|recovery, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	root := filepath.Join(*out, fmt.Sprintf("run-%s-%d", cfg.name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "nodebench: %v\n", err)
		os.Exit(1)
	}
	r := &run{cfg: cfg, seed: *seed, root: root}
	if *trace == 1 {
		r.tr = newTracer(procStart)
	}
	res, err := r.execute(time.Duration(*seconds) * time.Second)
	if rerr := os.RemoveAll(root); rerr != nil {
		fmt.Fprintf(os.Stderr, "nodebench: remove %s: %v\n", root, rerr)
	}
	if err == nil && r.tr != nil {
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.name, *seed))
		err = r.tr.write(spans)
		fmt.Fprintf(os.Stderr, "nodebench: spans written to %s\n", spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodebench: %s seed %d: %v\n", cfg.name, *seed, err)
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the set-up, then whole rounds until budget has passed since
// the set-up ended, and reports the run's metrics.
func (r *run) execute(budget time.Duration) (result, error) {
	res := result{Metrics: map[string]metric{}}
	setup, err := r.setup()
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := r.round(); err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
	}
	res.Correct = true
	res.Attempted, res.Failed = r.attempted, r.failed
	if r.tr != nil {
		lm, err := r.layerMetrics()
		if err != nil {
			return res, err
		}
		res.Metrics = lm
		r.tr.e2e = r.e2e(setup)
		return res, nil
	}
	res.Metrics = r.e2e(setup)
	return res, nil
}

// e2e turns the run's samples into the end-to-end metrics. Request
// latencies are trimmed means: a shared host can switch between a fast
// and a slow speed every few seconds, and then a run's median request
// lands in whichever speed held the run longer and jumps between the two
// from run to run, while the trimmed mean moves with the share of time
// spent at each.
func (r *run) e2e(setup time.Duration) map[string]metric {
	return map[string]metric{
		"setup_s":           {setup.Seconds(), "s"},
		"ingest_per_s":      {median(r.s.ingestRate), "records/s"},
		"churn_per_s":       {median(r.s.churnRate), "ops/s"},
		"query_us":          {trimmedMean(r.s.queryUS), "us"},
		"impair_visible_us": {trimmedMean(r.s.impairUS), "us"},
		"restart_ms":        {median(r.s.restartMS), "ms"},
		"history_us":        {trimmedMean(r.s.historyUS), "us"},
		"heap_mb":           {median(r.s.heapMB), "MB"},
		"journal_mb":        {median(r.s.journalMB), "MB"},
	}
}

// median is the middle sample, or the mean of the two middle samples; 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// trimmedMean is the mean of the samples left after dropping the lowest
// and the highest tenth; 0 for no samples.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// respWriter is the in-process http.ResponseWriter the generator reuses for
// every request.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}
