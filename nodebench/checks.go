package main

import (
	"fmt"
	"math"
	"reflect"

	"eona/internal/core"
	"eona/internal/netsim"
)

// The correctness checks. Each is a pure function over what the program
// served and what the benchmark knows independently, so checks_test.go can
// feed each a deliberately broken input.

// refGroup is the benchmark's own aggregate of one (ISP, CDN, cluster)
// group, summed from the reports it generated.
type refGroup struct {
	n                                               uint64
	score, bufRatio, bitrate, startup, abandonments float64
}

// refAgg aggregates generated reports independently of the program.
type refAgg struct {
	groups map[core.SummaryKey]*refGroup
	sent   uint64
}

func newRefAgg() *refAgg { return &refAgg{groups: make(map[core.SummaryKey]*refGroup)} }

func (a *refAgg) add(r core.QoERecord) {
	k := core.SummaryKey{ClientISP: r.ClientISP, CDN: r.CDN, Cluster: r.Cluster}
	g := a.groups[k]
	if g == nil {
		g = &refGroup{}
		a.groups[k] = g
	}
	g.n++
	g.score += r.Score
	g.bufRatio += r.BufferingRatio
	g.bitrate += r.AvgBitrateBps
	g.startup += r.StartupDelay.Seconds()
	if r.Abandoned {
		g.abandonments++
	}
	a.sent++
}

// closeRel reports whether two means agree within 1e-9 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-300
}

// checkSummaries compares served A2I summaries with the reference: the same
// set of groups with at least minSessions sessions, exact session counts and
// means within 1e-9 relative.
func checkSummaries(served []core.QoESummary, ref *refAgg, minSessions uint64) error {
	want := 0
	for _, g := range ref.groups {
		if g.n >= minSessions {
			want++
		}
	}
	if len(served) != want {
		return fmt.Errorf("summaries: served %d groups, reference has %d with >= %d sessions", len(served), want, minSessions)
	}
	seen := make(map[core.SummaryKey]bool, len(served))
	for _, s := range served {
		g := ref.groups[s.Key]
		if g == nil || g.n < minSessions {
			return fmt.Errorf("summaries: served group %v the reference does not export", s.Key)
		}
		if seen[s.Key] {
			return fmt.Errorf("summaries: group %v served twice", s.Key)
		}
		seen[s.Key] = true
		n := float64(g.n)
		if s.Sessions != n {
			return fmt.Errorf("summaries: group %v has %v sessions, reference %d", s.Key, s.Sessions, g.n)
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"mean_score", s.MeanScore, g.score / n},
			{"mean_buffering_ratio", s.MeanBufferingRatio, g.bufRatio / n},
			{"mean_bitrate_bps", s.MeanBitrateBps, g.bitrate / n},
			{"mean_startup_sec", s.MeanStartupSec, g.startup / n},
			{"abandonment_rate", s.AbandonmentRate, g.abandonments / n},
		} {
			if !closeRel(m.got, m.want) {
				return fmt.Errorf("summaries: group %v %s = %v, reference %v", s.Key, m.name, m.got, m.want)
			}
		}
	}
	return nil
}

// checkIngested compares the QoE read model's ingest count with the number
// of reports sent.
func checkIngested(got, sent uint64) error {
	if got != sent {
		return fmt.Errorf("ingested: read model counts %d reports, %d were sent", got, sent)
	}
	return nil
}

// flowObs is one flow as a snapshot shows it, with the path the benchmark
// gave it.
type flowObs struct {
	id           netsim.FlowID
	rate, demand float64
	links        []netsim.LinkID
}

// checkMaxMin verifies the max-min fairness certificate on an allocation:
// the rates on every link sum to at most its capacity, and every flow below
// its demand crosses a saturated link on which its rate is maximal. All
// weights are 1 in this benchmark.
func checkMaxMin(flows []flowObs, capacity []float64) error {
	const tol = 1e-9
	sum := make([]float64, len(capacity))
	maxRate := make([]float64, len(capacity))
	for _, f := range flows {
		for _, l := range f.links {
			sum[l] += f.rate
			maxRate[l] = math.Max(maxRate[l], f.rate)
		}
	}
	for l, c := range capacity {
		if sum[l] > c*(1+tol) {
			return fmt.Errorf("max-min: link %d carries %v over capacity %v", l, sum[l], c)
		}
	}
	for _, f := range flows {
		if f.rate >= f.demand*(1-tol) {
			continue
		}
		ok := false
		for _, l := range f.links {
			if sum[l] >= capacity[l]*(1-tol) && f.rate >= maxRate[l]*(1-tol) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("max-min: flow %d at %v below demand %v crosses no saturated link where its rate is maximal", f.id, f.rate, f.demand)
		}
	}
	return nil
}

// linkRow is the part of a /v1/links row the checks read.
type linkRow struct {
	Name        string  `json:"name"`
	CapacityBps float64 `json:"capacity_bps"`
}

// throttled is the capacity a throttle by factor (0 for a flap) applies to
// a link of base capacity: degraded, never below 1 bps.
func throttled(base, factor float64) float64 { return math.Max(1, base*factor) }

// checkLinkCapacity verifies /v1/links shows want as link name's capacity.
func checkLinkCapacity(rows []linkRow, name string, want float64) error {
	for _, r := range rows {
		if r.Name == name {
			if r.CapacityBps != want {
				return fmt.Errorf("links: %s shows capacity %v, want %v", name, r.CapacityBps, want)
			}
			return nil
		}
	}
	return fmt.Errorf("links: %s missing from /v1/links", name)
}

// checkBootNetwork compares a recovered network with the live one at the
// crash point: equal state digest and bit-equal link rates.
func checkBootNetwork(live crashState, digest uint64, rates []float64) error {
	if digest != live.digest {
		return fmt.Errorf("boot: recovered digest %016x, live %016x", digest, live.digest)
	}
	if len(rates) != len(live.linkRates) {
		return fmt.Errorf("boot: recovered %d link rates, live %d", len(rates), len(live.linkRates))
	}
	for i := range rates {
		if rates[i] != live.linkRates[i] {
			return fmt.Errorf("boot: link %d recovered rate %v, live %v", i, rates[i], live.linkRates[i])
		}
	}
	return nil
}

// checkSameSummaries requires two summary lists to be identical: resumed
// against live, or a history answer against a fold from the first record.
func checkSameSummaries(what string, got, want []core.QoESummary) error {
	if len(got) == 0 && len(want) == 0 {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: %d summaries differ from the %d expected", what, len(got), len(want))
	}
	return nil
}

// recordCounts are the records of each kind the benchmark appended.
type recordCounts struct {
	ingests, ops, faults, polls int
}

// checkCounts compares the record counts a boot recovered with those the
// benchmark appended.
func checkCounts(got, want recordCounts) error {
	if got != want {
		return fmt.Errorf("boot: recovered %d ingests, %d ops, %d faults, %d polls; appended %d, %d, %d, %d",
			got.ingests, got.ops, got.faults, got.polls, want.ingests, want.ops, want.faults, want.polls)
	}
	return nil
}
