package explore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/store"
)

// TestEngineDedupMatchesPlain: on fully enumerable fault-free and faulty
// configurations, a deduplicated run must reach the same verdict as the
// plain engine while completing strictly fewer replays — pruned subtrees are
// exactly the ones whose root state a smaller path already covered.
func TestEngineDedupMatchesPlain(t *testing.T) {
	configs := map[string]Config{
		"staged-f1-t1": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: 1,
		},
		"staged-f1-unbounded": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   1_000_000,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			plain, err := (&Engine{Workers: 4}).Check(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Complete || !plain.OK() {
				t.Fatalf("reference run: complete=%v violation=%v", plain.Complete, plain.Violation)
			}
			for _, w := range workerCounts {
				eng := &Engine{Workers: w, Dedup: true}
				out, err := eng.Check(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !out.Complete || !out.OK() {
					t.Errorf("workers=%d: complete=%v violation=%v", w, out.Complete, out.Violation)
				}
				if out.Dedup == nil {
					t.Fatalf("workers=%d: no dedup stats on a dedup run", w)
				}
				if out.Executions >= plain.Executions {
					t.Errorf("workers=%d: dedup explored %d executions, plain %d — no reduction",
						w, out.Executions, plain.Executions)
				}
				if out.Dedup.Hits == 0 {
					t.Errorf("workers=%d: dedup reported zero hits over %d lookups",
						w, out.Dedup.Lookups)
				}
			}
		})
	}
}

// TestEngineDedupCanonicalCounterexample: deduplication keeps only the
// lexicographically least path per state, so the canonical (lex-least)
// counterexample must survive pruning exactly — for every worker count.
func TestEngineDedupCanonicalCounterexample(t *testing.T) {
	cfg := Config{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	seq, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.OK() {
		t.Fatal("reference run found no violation")
	}
	for _, w := range workerCounts {
		eng := &Engine{Workers: w, Dedup: true}
		out, err := eng.Check(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if out.OK() {
			t.Fatalf("workers=%d: no violation found", w)
		}
		if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
			t.Errorf("workers=%d: violation path = %v, want %v", w, out.Violation.Path, seq.Violation.Path)
		}
		if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
			t.Errorf("workers=%d: schedule = %v, want %v", w, out.Violation.Schedule, seq.Violation.Schedule)
		}
		if out.Violation.Verdict.Violation != seq.Violation.Verdict.Violation {
			t.Errorf("workers=%d: verdict = %v, want %v",
				w, out.Violation.Verdict.Violation, seq.Violation.Verdict.Violation)
		}
	}
}

// TestEngineDedupExhaustive: in Exhaustive mode the minimal (shortest
// schedule, lex tie-break) counterexample must also survive deduplication:
// two paths reaching the same state have equal schedule lengths, so the
// pruned copy of any violation is never shorter than the kept one.
func TestEngineDedupExhaustive(t *testing.T) {
	cfg := Config{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	best, _, err := FindMinimal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		eng := &Engine{Workers: w, Dedup: true}
		ce, _, err := eng.FindMinimal(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ce == nil {
			t.Fatalf("workers=%d: no counterexample", w)
		}
		if len(ce.Schedule) != len(best.Schedule) {
			t.Errorf("workers=%d: schedule length = %d, want %d", w, len(ce.Schedule), len(best.Schedule))
		}
		if !reflect.DeepEqual(ce.Path, best.Path) {
			t.Errorf("workers=%d: minimal path = %v, want %v", w, ce.Path, best.Path)
		}
	}
}

// TestEngineDedupRejectsFixedPolicy: a fixed fault policy is an opaque,
// possibly stateful closure, incompatible with state fingerprints and
// checkpointed replay.
func TestEngineDedupRejectsFixedPolicy(t *testing.T) {
	cfg := Config{
		Protocol:    core.SingleCAS{},
		Inputs:      inputs(2),
		FixedPolicy: fault.PolicyFunc(func(fault.Op) fault.Proposal { return fault.NoFault }),
	}
	if _, err := (&Engine{Dedup: true}).Check(context.Background(), cfg); err == nil {
		t.Fatal("dedup with FixedPolicy must be rejected")
	}
	st, err := store.Create(filepath.Join(t.TempDir(), "run"), store.Manifest{Protocol: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Store: st}).Check(context.Background(), cfg); err == nil {
		t.Fatal("checkpointing with FixedPolicy must be rejected")
	}
}

// TestEngineInterruptedResume: an exploration killed repeatedly by short
// deadlines mid-enumeration and resumed from its run directory must reach
// the identical verdict as an uninterrupted run. The workload enumerates
// ~59k executions completely (no violation), so the resumed runs must stitch
// the checkpointed frontier back together without losing a single subtree —
// any lost task would surface as a premature "complete". Exercised with and
// without deduplication.
func TestEngineInterruptedResume(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
	}
	ref, err := (&Engine{Workers: 4}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete || !ref.OK() {
		t.Fatalf("reference run: complete=%v violation=%v", ref.Complete, ref.Violation)
	}

	for name, dedupOn := range map[string]bool{"plain": false, "dedup": true} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			m, err := ManifestFor(cfg, false, dedupOn)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}

			var out *Outcome
			interrupted := 0
			for attempt := 0; ; attempt++ {
				if attempt > 100 {
					t.Fatal("exploration made no progress across 100 resumes")
				}
				eng := &Engine{Workers: 4, Dedup: dedupOn, Store: st, CheckpointEvery: 5 * time.Millisecond}
				runCtx := context.Background()
				var cancel context.CancelFunc
				if interrupted < 3 {
					// First attempts: die young, mid-enumeration.
					runCtx, cancel = context.WithTimeout(runCtx, 30*time.Millisecond)
				}
				out, err = eng.Check(runCtx, cfg)
				if cancel != nil {
					cancel()
				}
				if err == nil {
					break
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatal(err)
				}
				interrupted++
				if st, err = store.Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			if interrupted == 0 {
				t.Log("run completed before the first deadline; resume path not exercised")
			}
			if !out.Complete || !out.OK() {
				t.Fatalf("resumed run: complete=%v violation=%v", out.Complete, out.Violation)
			}
			if out.Elapsed <= 0 {
				t.Error("resumed run lost its accumulated elapsed time")
			}

			// The final checkpoint is marked done; re-running against it
			// replays the stored outcome without re-exploring.
			st, err = store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cp := st.Checkpoint()
			if cp == nil || !cp.Done {
				t.Fatalf("final checkpoint = %+v, want done", cp)
			}
			again, err := (&Engine{Workers: 4, Dedup: dedupOn, Store: st}).Check(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Complete || !again.OK() {
				t.Errorf("re-resumed done run: complete=%v violation=%v", again.Complete, again.Violation)
			}
			if again.Executions != out.Executions {
				t.Errorf("done-run resume executions = %d, want stored %d", again.Executions, out.Executions)
			}
		})
	}
}

// TestEngineInterruptedResumeFindsViolation: an exploration interrupted
// before it reaches the violating region of the tree (deterministically, via
// an execution cap below the violation's position) must, once resumed, report
// the identical lex-least counterexample as an uninterrupted run.
func TestEngineInterruptedResumeFindsViolation(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   50_000,
	}
	ref, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OK() {
		t.Fatal("reference run found no violation")
	}

	dir := filepath.Join(t.TempDir(), "run")
	interruptedCfg := cfg
	interruptedCfg.MaxExecutions = 2 // dies before the violating execution
	m, err := ManifestFor(interruptedCfg, false, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Engine{Workers: 1, Store: st}).Check(context.Background(), interruptedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatal("interrupted run already found the violation; lower the cap")
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Engine{Workers: 1, Store: st}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.OK() {
		t.Fatal("resumed run found no violation")
	}
	if !reflect.DeepEqual(resumed.Violation.Path, ref.Violation.Path) {
		t.Errorf("violation path = %v, want %v", resumed.Violation.Path, ref.Violation.Path)
	}
	if !reflect.DeepEqual(resumed.Violation.Schedule, ref.Violation.Schedule) {
		t.Errorf("schedule = %v, want %v", resumed.Violation.Schedule, ref.Violation.Schedule)
	}
	if resumed.Violation.Verdict.Violation != ref.Violation.Verdict.Violation {
		t.Errorf("verdict = %v, want %v", resumed.Violation.Verdict.Violation, ref.Violation.Verdict.Violation)
	}
}

// TestEngineResumeClaimsLexLeastFirst: a snapshot lists its tasks in
// whatever order the frontier and the worker slots held them. Resuming must
// still start from the lexicographically least task, as the uninterrupted
// search would — otherwise a stop-on-first resume can spend its whole cap
// in a large violation-free subtree before reaching the counterexample.
// The three tasks are the remaining work of a figure3 f=1 t=1 n=3 sweep
// capped after two executions by two workers.
func TestEngineResumeClaimsLexLeastFirst(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
		MaxExecutions:   5000,
	}
	ref, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 0, 0, 0, 1}
	if ref.OK() || !reflect.DeepEqual(ref.Violation.Path, want) {
		t.Fatalf("reference violation = %+v, want path %v", ref.Violation, want)
	}

	m, err := ManifestFor(cfg, false, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(&store.Checkpoint{Executions: 2, Capped: true, Tasks: []store.Task{
		{Path: []int{1}, Floor: 0},
		{Path: want, Floor: 2},
		{Path: []int{0, 1}, Floor: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out, err := (&Engine{Workers: 1, Store: st}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !reflect.DeepEqual(out.Violation.Path, want) {
		t.Fatalf("resumed search: violation %+v after %d executions, want path %v", out.Violation, out.Executions, want)
	}
	if out.Executions != 3 {
		t.Errorf("resumed search took %d executions, want 3 (two restored plus the counterexample)", out.Executions)
	}
}

// TestEngineResumeCappedRun: the execution cap is advisory (not part of the
// settings hash), so a capped run can resume with a higher cap and finish
// the enumeration it was cut off from.
func TestEngineResumeCappedRun(t *testing.T) {
	cfg := Config{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	full, err := (&Engine{Workers: 2}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatalf("reference enumeration incomplete: %+v", full)
	}

	dir := filepath.Join(t.TempDir(), "run")
	capped := cfg
	capped.MaxExecutions = full.Executions / 3
	m, err := ManifestFor(capped, false, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Engine{Workers: 2, Store: st}).Check(context.Background(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || out.Executions != capped.MaxExecutions {
		t.Fatalf("capped run: complete=%v executions=%d", out.Complete, out.Executions)
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp := st.Checkpoint(); cp == nil || cp.Done || len(cp.Tasks) == 0 {
		t.Fatalf("capped checkpoint = %+v, want unfinished tasks", cp)
	}
	// The uncapped settings hash equals the capped one: resume is allowed.
	m2, err := ManifestFor(cfg, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(m2); err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Engine{Workers: 2, Store: st}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete || !resumed.OK() {
		t.Fatalf("resumed run: complete=%v violation=%v", resumed.Complete, resumed.Violation)
	}
}

// TestEngineCheckWithPersistence: the options front door must create a run
// store, refuse to resume it under mismatched settings (store.ErrMismatch),
// and resume it under matching ones.
func TestEngineCheckWithPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	base := []run.Option{
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(1),
		run.WithWorkers(2),
		run.WithDedup(),
	}
	out, err := CheckWith(context.Background(), append(base, run.WithCheckpoint(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}

	// Same directory, different inputs: refused.
	_, err = CheckWith(context.Background(),
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(3),
		run.WithAllObjectsFaulty(1),
		run.WithResume(dir),
	)
	if !errors.Is(err, store.ErrMismatch) {
		t.Fatalf("err = %v, want store.ErrMismatch", err)
	}

	// Matching settings: resumes (and, being done, just replays the result).
	again, err := CheckWith(context.Background(), append(base, run.WithResume(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Complete || !again.OK() {
		t.Fatalf("resumed: complete=%v violation=%v", again.Complete, again.Violation)
	}
	if again.Executions != out.Executions {
		t.Errorf("done-run resume executions = %d, want stored %d", again.Executions, out.Executions)
	}

	// Checkpointing into an occupied directory is refused.
	if _, err := CheckWith(context.Background(), append(base, run.WithCheckpoint(dir, 0))...); err == nil {
		t.Fatal("WithCheckpoint over an existing run must fail")
	}
}
