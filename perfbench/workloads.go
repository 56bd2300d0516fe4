package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/word"
)

const (
	// verifyCheckpointEvery is the checkpoint cadence of verify: the
	// engine's default. A job ends before the first tick, so each job
	// writes exactly one checkpoint, its final one, and the store's work
	// does not depend on how fast the host ran.
	verifyCheckpointEvery = 5 * time.Second
	// sweepSlab is the fixed number of executions one sweep job runs.
	sweepSlab = 400_000
	// checkWorkers is the worker count of sweep and tables.
	checkWorkers = 2
)

// workload builds jobs: setup makes one job's inputs and run directory
// under tmp without calling into the checker.
type workload struct {
	name  string
	setup func(seed int64, tmp string) (job, error)
}

// job is one call into a workload's entry point.
type job interface {
	// run calls the entry point once, checks its output against the known
	// answer, and reports what it measured. A wrong output is an error.
	run(ctx context.Context, traced bool) (jobResult, error)
	// close removes the job's run directory.
	close()
}

// jobResult is what one job measured.
type jobResult struct {
	wall       time.Duration
	executions int64
	// layers holds the per-layer metrics of a traced job.
	layers map[string]float64
	spans  []span
}

var workloads = []workload{
	{name: "verify", setup: setupVerify},
	{name: "sweep", setup: setupSweep},
	{name: "tables", setup: setupTables},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seededInputs draws n distinct process inputs in [0, word.MaxValue].
func seededInputs(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	in := make([]int64, 0, n)
	for len(in) < n {
		v := rng.Int63n(word.MaxValue + 1)
		if !seen[v] {
			seen[v] = true
			in = append(in, v)
		}
	}
	return in
}

// checkJob is one explore.CheckWith call with its known answer.
type checkJob struct {
	proto   core.Protocol
	opts    []run.Option
	workers int
	dir     string // run directory, removed by close; "" for none
	check   func(*explore.Outcome) error
}

// setupVerify is Figure 2 with f = 2 and n = 4, objects 0 and 1 faulty
// with unbounded overriding faults: Theorem 5 says it is VERIFIED, and the
// exploration must be complete.
func setupVerify(seed int64, tmp string) (job, error) {
	dir, err := os.MkdirTemp(tmp, "verify-")
	if err != nil {
		return nil, err
	}
	return &checkJob{
		proto:   core.NewFPlusOne(2),
		opts:    append(verifyOptions(seed), run.WithCheckpoint(filepath.Join(dir, "run"), verifyCheckpointEvery)),
		workers: 1,
		dir:     dir,
		check: func(out *explore.Outcome) error {
			if out.Violation != nil {
				return fmt.Errorf("verify: violation %s, want VERIFIED", out.Violation.Verdict.String())
			}
			if !out.Complete {
				return fmt.Errorf("verify: incomplete after %d executions", out.Executions)
			}
			return nil
		},
	}, nil
}

// verifyOptions are the options of verify other than its protocol and its
// checkpoint.
func verifyOptions(seed int64) []run.Option {
	return []run.Option{
		run.WithInputs(seededInputs(seed, 4)...),
		run.WithFaultyObjects([]int{0, 1}, fault.Unbounded),
		run.WithDedup(),
		run.WithReduce(run.ReduceSafe),
		run.WithWorkers(1),
	}
}

// setupSweep is Figure 3 with f = 2, t = 1 and n = 3, every object
// faulty: Theorem 6 says no execution violates consensus, so the capped
// sweep must run exactly sweepSlab executions without a violation.
func setupSweep(seed int64, tmp string) (job, error) {
	return &checkJob{
		proto: core.NewStaged(2, 1),
		opts: []run.Option{
			run.WithInputs(seededInputs(seed, 3)...),
			run.WithAllObjectsFaulty(1),
			run.WithWorkers(checkWorkers),
			run.WithMaxExecutions(sweepSlab),
		},
		workers: checkWorkers,
		check: func(out *explore.Outcome) error {
			if out.Violation != nil {
				return fmt.Errorf("sweep: violation %s, want none", out.Violation.Verdict.String())
			}
			if out.Executions != sweepSlab {
				return fmt.Errorf("sweep: %d executions, want the slab of %d", out.Executions, sweepSlab)
			}
			return nil
		},
	}, nil
}

func (j *checkJob) close() {
	if j.dir != "" {
		os.RemoveAll(j.dir)
	}
}

func (j *checkJob) run(ctx context.Context, traced bool) (jobResult, error) {
	reg := obs.NewRegistry()
	proto := j.proto
	var tp *timedProtocol
	if traced {
		tp = newTimedProtocol(proto)
		proto = tp
	}
	opts := append([]run.Option{run.WithProtocol(proto), run.WithMetrics(reg)}, j.opts...)
	start := time.Now()
	out, err := explore.CheckWith(ctx, opts...)
	end := time.Now()
	res := jobResult{wall: end.Sub(start), spans: []span{{Name: "explore.CheckWith", Start: start, End: end}}}
	if err != nil {
		return res, fmt.Errorf("explore.CheckWith: %w", err)
	}
	if err := j.check(out); err != nil {
		return res, err
	}
	res.executions = int64(out.Executions)
	if traced {
		res.layers = checkLayers(reg.Snapshot(), tp.totals(), res.wall, j.workers)
	}
	return res, nil
}

// tablesJob regenerates every reproduction table with harness.RunOne.
type tablesJob struct {
	seed int64
	exps []harness.Experiment
}

// setupTables is every harness experiment at full size: all ten claims
// must reproduce.
func setupTables(seed int64, tmp string) (job, error) {
	return &tablesJob{seed: seed, exps: harness.All()}, nil
}

func (j *tablesJob) close() {}

func (j *tablesJob) run(_ context.Context, traced bool) (jobResult, error) {
	reg := obs.NewRegistry()
	opts := harness.Options{Seed: j.seed, Workers: checkWorkers, Metrics: reg}
	var res jobResult
	var failed []string
	start := time.Now()
	for _, e := range j.exps {
		s := time.Now()
		err := harness.RunOne(io.Discard, e, opts)
		res.spans = append(res.spans, span{Name: "harness.RunOne/" + e.ID, Start: s, End: time.Now()})
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", e.ID, err))
		}
	}
	res.wall = time.Since(start)
	snap := reg.Snapshot()
	if len(failed) > 0 {
		return res, fmt.Errorf("tables: %v", failed)
	}
	if n := snap.Counters["harness.experiments.failed"]; n != 0 {
		return res, fmt.Errorf("tables: harness.experiments.failed = %d, want 0", n)
	}
	if n := snap.Counters["harness.experiments.run"]; n != int64(len(j.exps)) {
		return res, fmt.Errorf("tables: harness.experiments.run = %d, want %d", n, len(j.exps))
	}
	res.executions = snap.Counters["explore.executions"]
	if traced {
		res.layers = tablesLayers(snap, res.spans, res.wall)
	}
	return res, nil
}
