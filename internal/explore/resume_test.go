package explore

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/trace"
	"repro/internal/word"
)

// leafRecord is everything one replay showed: the choices it consumed,
// where and why it was pruned, and for a completed leaf its verdict,
// schedule and trace.
type leafRecord struct {
	taken      []int
	prunedAt   int
	pruneSleep bool
	verdict    run.Verdict
	schedule   []int
	events     []trace.Event
}

// leafLog collects the leaf sequence of one exploration. With fromRoot set
// it is also the replay-from-root oracle: it drops the frame stack after
// every leaf, so the next replay starts at the root.
type leafLog struct {
	fromRoot bool
	leaves   []leafRecord
	// steps is the Step calls of the execState that ran the last leaf.
	steps int64
}

// attach returns cfg with the log observing its leaves.
func (l *leafLog) attach(cfg Config) Config {
	cfg.onLeaf = func(es *execState, v run.Verdict, pruned bool) {
		v.Decisions = append([]word.Word(nil), v.Decisions...)
		v.Decided = append([]bool(nil), v.Decided...)
		rec := leafRecord{
			taken:      append([]int(nil), es.c.taken...),
			prunedAt:   es.prunedAt,
			pruneSleep: es.pruneSleep,
		}
		if !pruned {
			rec.verdict = v
			rec.schedule = append([]int(nil), es.schedule...)
			rec.events = append([]trace.Event(nil), es.log.Events()...)
		}
		l.leaves = append(l.leaves, rec)
		l.steps = es.stepped.StepCalls()
		if l.fromRoot {
			es.frames = es.frames[:0]
		}
	}
	return cfg
}

// diffOutcomes describes the first difference between two outcomes of the
// same exploration ("" when they agree on every deterministic field).
func diffOutcomes(want, got *Outcome) string {
	if want.Executions != got.Executions || want.Complete != got.Complete ||
		want.MaxProcSteps != got.MaxProcSteps || want.MaxFaults != got.MaxFaults ||
		want.ReducePrunes != got.ReducePrunes {
		return fmt.Sprintf("outcome: want executions=%d complete=%v maxSteps=%d maxFaults=%d reducePrunes=%d, got %d %v %d %d %d",
			want.Executions, want.Complete, want.MaxProcSteps, want.MaxFaults, want.ReducePrunes,
			got.Executions, got.Complete, got.MaxProcSteps, got.MaxFaults, got.ReducePrunes)
	}
	if (want.Dedup == nil) != (got.Dedup == nil) {
		return "dedup stats present in only one outcome"
	}
	if w, g := want.Dedup, got.Dedup; w != nil &&
		(w.States != g.States || w.Hits != g.Hits || w.LeafLookups != g.LeafLookups) {
		return fmt.Sprintf("dedup: want states=%d hits=%d leafLookups=%d, got %d %d %d",
			w.States, w.Hits, w.LeafLookups, g.States, g.Hits, g.LeafLookups)
	}
	if (want.Violation == nil) != (got.Violation == nil) {
		return fmt.Sprintf("violation: want %v, got %v", want.Violation != nil, got.Violation != nil)
	}
	if want.Violation == nil {
		return ""
	}
	wv, gv := want.Violation, got.Violation
	if !reflect.DeepEqual(wv.Path, gv.Path) || !reflect.DeepEqual(wv.Schedule, gv.Schedule) ||
		!reflect.DeepEqual(wv.Verdict, gv.Verdict) {
		return fmt.Sprintf("counterexample: want path %v schedule %v (%s), got %v %v (%s)",
			wv.Path, wv.Schedule, wv.Verdict.String(), gv.Path, gv.Schedule, gv.Verdict.String())
	}
	if d := diffEvents(wv.Trace.Events(), gv.Trace.Events()); d != "" {
		return "counterexample trace: " + d
	}
	return ""
}

// diffLeaves describes the first difference between two leaf sequences.
func diffLeaves(want, got []leafRecord) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Sprintf("leaf %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("leaf count: want %d, got %d", len(want), len(got))
	}
	return ""
}

// resumeFamilies is one small configuration of each protocol family.
func resumeFamilies() []reduceCase {
	return []reduceCase{
		{name: "single-cas", cfg: Config{
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{name: "f-plus-one", cfg: Config{
			Protocol:        core.NewFPlusOne(1),
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{name: "staged", cfg: Config{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1},
			FaultsPerObject: 1,
		}},
		{name: "silent-retry", cfg: Config{
			Protocol:        core.NewSilentRetry(1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: 2,
			StepLimit:       12,
		}},
	}
}

// TestResumeMatchesFromRoot is the parity gate of incremental replay
// (scripts/check.sh runs it under the race detector): every protocol
// family, under both fault kinds, with dedup off and on and every
// reduction mode, is explored by the sequential Check and by a one-worker
// Engine twice — resuming from frames, and with the from-root oracle. The
// leaf sequences (consumed path, pruned position and mechanism, verdict,
// schedule, trace) and the outcomes must be identical.
func TestResumeMatchesFromRoot(t *testing.T) {
	var resumedSteps, rootSteps atomic.Int64
	t.Cleanup(func() {
		if r, o := resumedSteps.Load(), rootSteps.Load(); r >= o {
			t.Errorf("resumed replays ran %d steps, from-root replays %d: resuming saved nothing", r, o)
		}
	})
	for _, fam := range resumeFamilies() {
		for _, kind := range []fault.Kind{fault.Overriding, fault.Silent} {
			for _, dedupOn := range []bool{false, true} {
				for _, mode := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe, run.ReduceAggressive} {
					for _, engine := range []bool{false, true} {
						if dedupOn && !engine {
							continue // the sequential checker has no state cache
						}
						cfg := fam.cfg
						cfg.Kind = kind
						cfg.Reduce = mode
						cfg.MaxExecutions = 3000
						name := fmt.Sprintf("%s/%s/dedup=%v/reduce=%s/engine=%v", fam.name, kind, dedupOn, mode, engine)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							explore := func(l *leafLog) *Outcome {
								c := l.attach(cfg)
								var out *Outcome
								var err error
								if engine {
									out, err = (&Engine{Workers: 1, Dedup: dedupOn}).Check(context.Background(), c)
								} else {
									out, err = Check(c)
								}
								if err != nil {
									t.Fatal(err)
								}
								return out
							}
							resumed, root := &leafLog{}, &leafLog{fromRoot: true}
							rOut, oOut := explore(resumed), explore(root)
							if d := diffLeaves(root.leaves, resumed.leaves); d != "" {
								t.Fatalf("resumed leaf sequence differs from the from-root oracle: %s", d)
							}
							if d := diffOutcomes(oOut, rOut); d != "" {
								t.Fatalf("resumed outcome differs from the from-root oracle: %s", d)
							}
							if resumed.steps > root.steps {
								t.Errorf("resumed replays ran %d steps, from-root replays %d", resumed.steps, root.steps)
							}
							resumedSteps.Add(resumed.steps)
							rootSteps.Add(root.steps)
						})
					}
				}
			}
		}
	}
}

// countingProtocol counts, from outside the program, every Step call its
// compiled form makes.
type countingProtocol struct {
	core.Protocol
	steps *atomic.Int64
}

func (p countingProtocol) Compile() core.Stepper {
	inner, _ := core.Compile(p.Protocol)
	return countingStepper{Stepper: inner, steps: p.steps}
}

type countingStepper struct {
	core.Stepper
	steps *atomic.Int64
}

func (s countingStepper) Step(st *core.State, env core.Env) (bool, int64) {
	s.steps.Add(1)
	return s.Stepper.Step(st, env)
}

// TestEngineReplayAndStepCounters pins the replay and step counters of a
// complete one-worker sweep: every replay either completes (an execution)
// or is pruned by dedup or by the reducer, and explore.steps is exactly the
// Step calls the compiled machines saw.
func TestEngineReplayAndStepCounters(t *testing.T) {
	var steps atomic.Int64
	cfg := Config{
		Protocol:        countingProtocol{Protocol: core.NewFPlusOne(1), steps: &steps},
		Inputs:          inputs(4),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
		Reduce:          run.ReduceSafe,
	}
	reg := obs.NewRegistry()
	out, err := (&Engine{Workers: 1, Dedup: true, Metrics: reg}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}
	c := reg.Snapshot().Counters
	if c["explore.dedup.prunes"] == 0 || c["explore.reduce.prunes"] == 0 {
		t.Fatalf("sweep pruned nothing (dedup %d, reduce %d); pick a workload that exercises both",
			c["explore.dedup.prunes"], c["explore.reduce.prunes"])
	}
	want := c["explore.executions"] + c["explore.dedup.prunes"] + c["explore.reduce.prunes"]
	if got := c["explore.replays"]; got != want {
		t.Errorf("explore.replays = %d, want executions + dedup prunes + reduce prunes = %d", got, want)
	}
	if got := c["explore.steps"]; got != steps.Load() || got == 0 {
		t.Errorf("explore.steps = %d, the compiled machines counted %d Step calls", got, steps.Load())
	}
}
