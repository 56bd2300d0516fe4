package explore

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

var workerCounts = []int{1, 2, 4, 8}

// TestEngineMatchesSequentialComplete: on configurations whose tree is fully
// enumerable, the engine must reproduce the sequential checker's outcome —
// same execution count, completeness, and observed maxima — for every worker
// count.
func TestEngineMatchesSequentialComplete(t *testing.T) {
	configs := map[string]Config{
		"single-cas-fault-free": {
			Protocol: core.SingleCAS{},
			Inputs:   inputs(2),
		},
		"single-cas-unbounded-faults": {
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		},
		"staged-f1-t1": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: 1,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			seq, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Complete || !seq.OK() {
				t.Fatalf("reference run: complete=%v violation=%v", seq.Complete, seq.Violation)
			}
			for _, w := range workerCounts {
				eng := &Engine{Workers: w}
				out, err := eng.Check(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if out.Executions != seq.Executions {
					t.Errorf("workers=%d: executions = %d, want %d", w, out.Executions, seq.Executions)
				}
				if !out.Complete || !out.OK() {
					t.Errorf("workers=%d: complete=%v violation=%v", w, out.Complete, out.Violation)
				}
				if out.MaxProcSteps != seq.MaxProcSteps || out.MaxFaults != seq.MaxFaults {
					t.Errorf("workers=%d: maxima = (%d,%d), want (%d,%d)",
						w, out.MaxProcSteps, out.MaxFaults, seq.MaxProcSteps, seq.MaxFaults)
				}
				if out.Workers != w {
					t.Errorf("workers=%d: Outcome.Workers = %d", w, out.Workers)
				}
			}
		})
	}
}

// TestEngineCanonicalCounterexample: on violating configurations the engine
// must report the lexicographically least violating path — the exact
// counterexample the sequential checker finds first — for every worker count.
func TestEngineCanonicalCounterexample(t *testing.T) {
	configs := map[string]Config{
		"single-cas-3procs": {
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		},
		"staged-f1-t1-3procs": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(3),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   50_000,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			seq, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seq.OK() {
				t.Fatal("reference run found no violation")
			}
			for _, w := range workerCounts {
				eng := &Engine{Workers: w}
				out, err := eng.Check(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if out.OK() {
					t.Fatalf("workers=%d: no violation found", w)
				}
				if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
					t.Errorf("workers=%d: violation path = %v, want %v",
						w, out.Violation.Path, seq.Violation.Path)
				}
				if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
					t.Errorf("workers=%d: schedule = %v, want %v",
						w, out.Violation.Schedule, seq.Violation.Schedule)
				}
				if out.Violation.Verdict.Violation != seq.Violation.Verdict.Violation {
					t.Errorf("workers=%d: verdict = %v, want %v",
						w, out.Violation.Verdict.Violation, seq.Violation.Verdict.Violation)
				}
				if out.ViolationLatency <= 0 {
					t.Errorf("workers=%d: violation latency not recorded", w)
				}
			}
		})
	}
}

// TestEngineFindMinimalDeterministic: Exhaustive mode enumerates the complete
// tree (deterministic execution count) and selects the shortest-schedule
// counterexample, matching the sequential FindMinimal for every worker count.
func TestEngineFindMinimalDeterministic(t *testing.T) {
	cfg := Config{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	best, seq, err := FindMinimal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || !seq.Complete {
		t.Fatalf("reference FindMinimal: best=%v complete=%v", best, seq.Complete)
	}
	for _, w := range workerCounts {
		eng := &Engine{Workers: w}
		ce, out, err := eng.FindMinimal(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ce == nil {
			t.Fatalf("workers=%d: no counterexample", w)
		}
		if out.Executions != seq.Executions {
			t.Errorf("workers=%d: executions = %d, want %d", w, out.Executions, seq.Executions)
		}
		if !out.Complete {
			t.Errorf("workers=%d: exhaustive run not complete", w)
		}
		if len(ce.Schedule) != len(best.Schedule) {
			t.Errorf("workers=%d: schedule length = %d, want %d", w, len(ce.Schedule), len(best.Schedule))
		}
		if !reflect.DeepEqual(ce.Path, best.Path) {
			t.Errorf("workers=%d: minimal path = %v, want %v", w, ce.Path, best.Path)
		}
	}
}

// TestEngineExecutionCap: the atomic claim protocol must make a capped run
// stop at exactly the cap, independent of worker count.
func TestEngineExecutionCap(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
		MaxExecutions:   500,
	}
	for _, w := range workerCounts {
		eng := &Engine{Workers: w}
		out, err := eng.Check(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if out.Executions != cfg.MaxExecutions {
			t.Errorf("workers=%d: executions = %d, want exactly %d", w, out.Executions, cfg.MaxExecutions)
		}
		if out.Complete {
			t.Errorf("workers=%d: capped run reported complete", w)
		}
	}
}

// TestEngineDeadline: a context deadline must stop a large exploration
// promptly and surface as the returned error alongside the partial outcome.
func TestEngineDeadline(t *testing.T) {
	cfg := Config{
		// staged(2,1) with 3 processes: millions of executions — far more
		// than fits in the deadline.
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1, 2, 3, 4},
		FaultsPerObject: 1,
		MaxExecutions:   100_000_000,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	eng := &Engine{Workers: 4}
	out, err := eng.Check(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("engine took %v to honor a 100ms deadline", elapsed)
	}
	if out == nil {
		t.Fatal("no partial outcome returned")
	}
	if out.Executions == 0 {
		t.Error("no executions completed before the deadline")
	}
	if out.Complete {
		t.Error("interrupted run reported complete")
	}
}

// TestEngineImmediateCancel: a context cancelled before Check starts must
// return without exploring.
func TestEngineImmediateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Workers: 2}
	out, err := eng.Check(ctx, Config{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if out == nil || out.Complete {
		t.Fatalf("want incomplete partial outcome, got %+v", out)
	}
}

// TestEngineProgressReports: the throughput reporter must deliver reports
// with monotone execution counts while a long run is in flight.
func TestEngineProgressReports(t *testing.T) {
	var reports []Progress
	// The reporter goroutine shares the CPUs with busy workers and may not
	// run until they are preempted, so the enumeration (59,004 executions,
	// tens of milliseconds) must outlast several preemption slices and the
	// tick must be short for any report to arrive.
	eng := &Engine{
		Workers:       2,
		ProgressEvery: time.Millisecond,
		Progress:      func(p Progress) { reports = append(reports, p) },
	}
	out, err := eng.Check(context.Background(), Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("enumeration must complete")
	}
	if len(reports) == 0 {
		t.Skip("run finished before the first report tick")
	}
	last := int64(0)
	for _, p := range reports {
		if p.Executions < last {
			t.Fatalf("execution count went backwards: %d after %d", p.Executions, last)
		}
		last = p.Executions
	}
}

// TestEngineCheckWithOptions: the unified options front door must drive the
// engine end to end.
func TestEngineCheckWithOptions(t *testing.T) {
	out, err := CheckWith(context.Background(),
		run.WithProtocol(core.SingleCAS{}),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(fault.Unbounded),
		run.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}
	if out.Workers != 2 {
		t.Errorf("workers = %d, want 2", out.Workers)
	}
}

// TestEngineSubsetSweep: the engine subset sweep must agree with the
// sequential CheckAllSubsets.
func TestEngineSubsetSweep(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultsPerObject: 1,
	}
	seq, err := CheckAllSubsets(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: 4}
	par, err := eng.CheckAllSubsets(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.Executions != seq.Executions || par.Complete != seq.Complete {
		t.Errorf("engine sweep = (%d, %v), sequential = (%d, %v)",
			par.Executions, par.Complete, seq.Executions, seq.Complete)
	}
	if (par.Violation == nil) != (seq.Violation == nil) {
		t.Errorf("violation mismatch: engine=%v sequential=%v", par.Violation, seq.Violation)
	}
}
