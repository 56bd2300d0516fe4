package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, perLayer those of a
// traced run. BENCHMARK.json names the same metrics in the same order.
var (
	endToEnd = []metric{
		{"setup_s", "s"},
		{"wall_s", "s"},
		{"cpu_s", "s"},
		{"peak_rss_mb", "MB"},
	}
	perLayer = []metric{
		{"executions_per_s", "1/s"},
		{"explore.executions", "count"},
		{"explore.replays", "count"},
		{"explore.useful_frac", "frac"},
		{"explore.self_ns_per_replay", "ns/replay"},
		{"explore.steals", "count"},
		{"explore.donations", "count"},
		{"explore.idle_frac", "frac"},
		{"core.steps", "count"},
		{"core.steps_per_replay", "count"},
		{"core.step_self_ns", "ns/call"},
		{"object.cas_calls", "count"},
		{"object.cas_ns", "ns/call"},
		{"reduce.prunes", "count"},
		{"reduce.pending_calls", "count"},
		{"reduce.pending_ns", "ns/call"},
		{"dedup.lookups", "count"},
		{"dedup.leaf_lookups", "count"},
		{"dedup.hits", "count"},
		{"dedup.states", "count"},
		{"dedup.hit_rate", "frac"},
		{"store.saves", "count"},
		{"store.bytes", "B"},
		{"store.save_ms", "ms/job"},
		{"store.write_ms", "ms/job"},
		{"harness.E1_s", "s/job"},
		{"harness.E2_s", "s/job"},
		{"harness.E3_s", "s/job"},
		{"harness.E4_s", "s/job"},
		{"harness.E5_s", "s/job"},
		{"harness.E6_s", "s/job"},
		{"harness.E7_s", "s/job"},
		{"harness.E8_s", "s/job"},
		{"harness.E9_s", "s/job"},
		{"harness.E10_s", "s/job"},
		{"harness.explore_executions", "count"},
		{"trace.overhead_frac", "frac"},
	}
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers fills the explore, reduce, dedup and store metrics from the
// engine's registry. span is the wall time the explorations ran for and
// workers their worker count; the result also carries busyNS, the worker
// time not spent idle.
func engineLayers(snap obs.Snapshot, span time.Duration, workers int) (m map[string]float64, busyNS float64) {
	c := snap.Counters
	execs := float64(c["explore.executions"])
	replays := execs + float64(c["explore.dedup.prunes"]+c["explore.reduce.prunes"])
	var idle float64
	for name, v := range c {
		if strings.HasPrefix(name, "explore.worker.") && strings.HasSuffix(name, ".idle_ns") {
			idle += float64(v)
		}
	}
	workerNS := float64(workers) * float64(span.Nanoseconds())
	m = map[string]float64{
		"explore.executions":  execs,
		"explore.replays":     replays,
		"explore.useful_frac": ratio(execs, replays),
		"explore.steals":      float64(c["explore.frontier.steals"]),
		"explore.donations":   float64(c["explore.frontier.donations"]),
		"explore.idle_frac":   ratio(idle, workerNS),
		"reduce.prunes":       float64(c["explore.reduce.prunes"]),
		"dedup.lookups":       float64(snap.Gauges["dedup.lookups"]),
		"dedup.leaf_lookups":  float64(snap.Gauges["dedup.leaf_lookups"]),
		"dedup.hits":          float64(snap.Gauges["dedup.hits"]),
		"dedup.states":        float64(snap.Gauges["dedup.states"]),
		"dedup.hit_rate":      ratio(float64(snap.Gauges["dedup.hits"]), float64(snap.Gauges["dedup.leaf_lookups"])),
		"store.saves":         float64(c["store.checkpoint.saves"]),
		"store.bytes":         float64(c["store.checkpoint.bytes"]),
		"store.save_ms":       snap.Histograms["explore.checkpoint.save_ms"].Sum,
		"store.write_ms":      snap.Histograms["store.checkpoint.write_ms"].Sum,
	}
	return m, workerNS - idle
}

// checkLayers derives the per-layer metrics of one traced CheckWith call
// from the engine's registry and the timing wrapper. The explore layer's
// self time is the workers' busy time in the span, less the estimated
// Stepper.Step time (steps times the sampled mean) and the checkpoint
// saves: what is left is the runner, scheduler, dedup and reducer.
func checkLayers(snap obs.Snapshot, t layerTimes, span time.Duration, workers int) map[string]float64 {
	m, busyNS := engineLayers(snap, span, workers)
	replays := m["explore.replays"]
	step, cas := meanNS(t.stepNS, t.stepSamples, 1), meanNS(t.casNS, t.casSamples, 1)
	saveNS := m["store.save_ms"] * 1e6
	m["explore.self_ns_per_replay"] = ratio(busyNS-float64(t.steps)*step-saveNS, replays)
	m["core.steps"] = float64(t.steps)
	m["core.steps_per_replay"] = ratio(float64(t.steps), replays)
	m["core.step_self_ns"] = step - cas
	m["object.cas_calls"] = float64(t.casCalls)
	m["object.cas_ns"] = cas
	m["reduce.pending_calls"] = float64(t.pendingCalls)
	m["reduce.pending_ns"] = meanNS(t.pendNS, t.pendSamples, pendingBatch)
	return m
}

// tablesLayers derives the per-layer metrics of one traced table
// regeneration: the per-experiment RunOne spans plus the registry every
// exploration of the sweep published on. The harness builds its protocols
// itself, so the core and object layers are out of reach here.
func tablesLayers(snap obs.Snapshot, spans []span, wall time.Duration) map[string]float64 {
	m, _ := engineLayers(snap, wall, checkWorkers)
	for _, s := range spans {
		m["harness."+strings.TrimPrefix(s.Name, "harness.RunOne/")+"_s"] = s.End.Sub(s.Start).Seconds()
	}
	m["harness.explore_executions"] = m["explore.executions"]
	return m
}
