package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is the number of fresh processes whose set-up time a run
// measures; setup_s is their median.
const setupProbes = 15

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload: verify | sweep | tables")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for run directories and spans")
		commit  = flag.String("commit", "unknown", "commit (or source digest) the benchmark was built from")
		probe   = flag.Bool("probe", false, "internal: set up one job, print the time of the entry call, exit")
	)
	flag.Parse()
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload verify|sweep|tables --seed N --seconds S --trace 0|1")
		return 2
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *probe {
		return probeOnce(wl, *seed, tmp)
	}

	h := stampHost(*commit)
	budget := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	var r report
	var untraced phase
	if *trace == 0 {
		setup, err := probeSetup(wl, *seed, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
			return 1
		}
		untraced, _ = runLoop(ctx, wl, *seed, tmp, budget, false)
		r = endToEndReport(untraced, setup)
	} else {
		var traced phase
		untraced, traced = runLoop(ctx, wl, *seed, tmp, budget, true)
		r = perLayerReport(untraced, traced)
	}

	// fail_frac and executions_per_s are printed here, not in the result
	// line: a fraction that is 0 when all is well cannot carry a bound, and
	// executions_per_s misreads on verify, so both stay out of the bounded
	// end-to-end metrics.
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Printf("workload %s seed %d trace %d: %d jobs, %d failed; fail_frac %g frac; executions_per_s %.6g 1/s\n",
		wl.name, *seed, *trace, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), median(untraced.eps))
	for _, m := range r.order {
		fmt.Printf("%-28s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d-trace%d.jsonl", wl.name, *seed, *trace))
	if err := writeSpans(path, h, r.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// probeOnce is one set-up probe: it sets up a job as a run would and
// prints the wall-clock time at which the run would call the entry point.
func probeOnce(wl workload, seed int64, tmp string) int {
	j, err := wl.setup(seed, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	entry := time.Now().UnixNano()
	j.close()
	fmt.Println(entry)
	return 0
}

// probeSetup measures setup_s: from the start of a fresh process of this
// benchmark to its first call into the workload's entry point, as the
// median over setupProbes processes.
func probeSetup(wl workload, seed int64, out string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := make([]float64, setupProbes)
	for i := range samples {
		cmd := exec.Command(exe, "--probe", "--workload", wl.name,
			"--seed", strconv.FormatInt(seed, 10), "--out", out)
		cmd.Stderr = os.Stderr
		start := time.Now()
		b, err := cmd.Output()
		if err != nil {
			return 0, err
		}
		entry, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("probe output %q: %w", b, err)
		}
		samples[i] = float64(entry-start.UnixNano()) / 1e9
	}
	return median(samples), nil
}

// phase is what a closed loop of jobs measured.
type phase struct {
	attempted, failed int
	walls, cpus, eps  []float64
	layers            []map[string]float64
	spans             []spanRecord
}

// runLoop is the closed loop: it starts one job at a time for as long as
// budget has not run out, and at least one. With trace set, jobs
// alternate between untraced and traced, so that both sides see the same
// host conditions; the untraced ones are the baseline of the overhead.
func runLoop(ctx context.Context, wl workload, seed int64, tmp string, budget time.Duration, trace bool) (untraced, traced phase) {
	start := time.Now()
	for n := 0; n == 0 || (trace && n == 1) || time.Since(start) < budget; n++ {
		if trace && n%2 == 1 {
			runJob(ctx, wl, seed, tmp, true, n, &traced)
		} else {
			runJob(ctx, wl, seed, tmp, false, n, &untraced)
		}
	}
	return untraced, traced
}

// runJob sets up, runs and checks job number n, recording it in p.
func runJob(ctx context.Context, wl workload, seed int64, tmp string, traced bool, n int, p *phase) {
	p.attempted++
	j, err := wl.setup(seed, tmp)
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", wl.name, err)
		return
	}
	defer j.close()
	runtime.GC()
	cpu0 := cpuSeconds()
	jobStart := time.Now()
	res, err := j.run(ctx, traced)
	jobEnd := time.Now()
	cpu := cpuSeconds() - cpu0
	p.spans = append(p.spans, spanRecord{Job: n, Traced: traced, span: span{Name: "job/" + wl.name, Start: jobStart, End: jobEnd}})
	for _, s := range res.spans {
		p.spans = append(p.spans, spanRecord{Job: n, Traced: traced, Parent: "job/" + wl.name, span: s})
	}
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s job failed: %v\n", wl.name, err)
		return
	}
	p.walls = append(p.walls, res.wall.Seconds())
	p.cpus = append(p.cpus, cpu)
	p.eps = append(p.eps, float64(res.executions)/res.wall.Seconds())
	if traced {
		p.layers = append(p.layers, res.layers)
	}
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line. Its exported fields are the only keys the
// line carries.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	order []metric
	spans []spanRecord
}

func newReport(order []metric, phases ...phase) report {
	r := report{Metrics: map[string]value{}, order: order}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.spans = append(r.spans, p.spans...)
	}
	r.Correct = r.Failed == 0
	return r
}

func (r *report) set(name string, v float64) {
	for _, m := range r.order {
		if m.name == name {
			r.Metrics[name] = value{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: unlisted metric " + name)
}

func endToEndReport(p phase, setup float64) report {
	r := newReport(endToEnd, p)
	r.set("setup_s", setup)
	r.set("wall_s", median(p.walls))
	r.set("cpu_s", median(p.cpus))
	r.set("peak_rss_mb", peakRSSMB())
	return r
}

func perLayerReport(base, traced phase) report {
	r := newReport(perLayer, base, traced)
	for _, m := range perLayer {
		vals := make([]float64, 0, len(traced.layers))
		for _, l := range traced.layers {
			vals = append(vals, l[m.name])
		}
		r.set(m.name, median(vals))
	}
	r.set("executions_per_s", median(base.eps))
	r.set("trace.overhead_frac", ratio(median(traced.walls), median(base.walls))-1)
	return r
}

// median is the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the user plus system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the peak resident memory of this process, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports Maxrss in KiB
}
