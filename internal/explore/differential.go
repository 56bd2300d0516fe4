package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CrossReport is the outcome of a compiled-vs-reference differential
// sweep.
type CrossReport struct {
	// Executions is the number of leaves both forms replayed.
	Executions int
	// Complete reports the full tree was enumerated (no divergence and the
	// cap was not hit).
	Complete bool
	// Diverged reports the forms disagreed; Path and Detail then identify
	// the lexicographically first diverging leaf and what differed.
	Diverged bool
	Path     []int
	Detail   string
}

// CrossCheck enumerates the execution tree leaf for leaf through BOTH
// execution forms — the goroutine-gated reference simulator running the
// protocol's paper-shaped Decide, and the compiled step machines every
// driver runs — and compares every observable of every leaf: the extended
// choice path, the schedule, the verdict (violation, detail, decisions),
// the per-process step counts, the fault tally, and the full trace event
// log. The enumeration is driven by the reference, in its depth-first
// order, so the first divergence reported is the lexicographically least
// one; on a clean sweep both forms necessarily agree on the lex-least
// counterexample and on completeness.
//
// Dedup, reduction and fixed policies are outside CrossCheck's scope — it
// exists to certify the compiled form against the reference, and does so
// over the checker's own choice-driven fault policy.
func CrossCheck(cfg Config) (*CrossReport, error) {
	kind, cap, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	if cfg.FixedPolicy != nil || cfg.Reduce != run.ReduceOff {
		return nil, fmt.Errorf("explore: CrossCheck drives the checker's own fault policy over the unreduced tree")
	}

	ref := newReference(cfg, kind)
	cc := &chooser{}
	ces := newExecState(cfg, kind, cc, nil)

	rep := &CrossReport{}
	for rep.Executions < cap {
		ic := ref.c
		ic.arity = ic.arity[:0]
		ic.pos = 0
		iv, istats, err := ref.runLeaf()
		if err != nil {
			return nil, fmt.Errorf("explore: crosscheck: reference leaf %v: %w", ic.path, err)
		}

		// Replay the same leaf through the compiled form: seed its chooser
		// with the reference's full extended path. An equivalent compiled
		// run consumes exactly those choices; a structural divergence
		// (different arity on the same prefix) surfaces as the chooser's
		// stale-choice panic, which is caught and reported.
		cc.path = append(cc.path[:0], ic.path...)
		cv, cstats, err := crossLeaf(ces)
		rep.Executions++
		if err != nil {
			rep.Diverged = true
			rep.Path = append([]int(nil), ic.path...)
			rep.Detail = err.Error()
			return rep, nil
		}
		if diff := diffLeaf(ref, ces, iv, cv, istats, cstats); diff != "" {
			rep.Diverged = true
			rep.Path = append([]int(nil), ic.path...)
			rep.Detail = diff
			return rep, nil
		}
		if !ic.next() {
			rep.Complete = true
			return rep, nil
		}
	}
	return rep, nil
}

// reference replays leaves on the goroutine-gated reference simulator:
// sim.RunContext over run.Programs, with a scheduler and a fault policy
// driven by its own chooser exactly as an execState's are.
type reference struct {
	cfg      Config
	c        *chooser
	budget   *fault.Budget
	bank     *object.Bank
	log      *trace.Log
	schedule []int
	eval     *run.Evaluator
	limit    int
}

func newReference(cfg Config, kind fault.Kind) *reference {
	r := &reference{cfg: cfg, c: &chooser{}, log: trace.New(), eval: run.NewEvaluator(cfg.Inputs)}
	r.budget = fault.NewFixedBudget(cfg.FaultyObjects, cfg.FaultsPerObject)
	r.bank = object.NewBank(cfg.Protocol.Objects(), r.budget, choicePolicy(r.budget, kind, r.c))
	r.limit = cfg.StepLimit
	if r.limit <= 0 {
		r.limit = cfg.Protocol.StepBound(len(cfg.Inputs))
	}
	return r
}

// next is the reference scheduler: it follows the choice path through the
// enabled set.
func (r *reference) next(enabled []int) (int, bool) {
	pick := enabled[0]
	if len(enabled) > 1 {
		pick = enabled[r.c.choose(len(enabled))]
	}
	r.schedule = append(r.schedule, pick)
	return pick, true
}

// runLeaf replays one execution along the chooser's path.
func (r *reference) runLeaf() (run.Verdict, runStats, error) {
	r.budget.Reset()
	r.bank.Reset()
	r.log.Reset()
	r.schedule = r.schedule[:0]
	res, err := sim.RunContext(context.Background(), sim.Config{
		Programs:  run.Programs(r.cfg.Protocol, r.bank, r.cfg.Inputs),
		Scheduler: sim.SchedulerFunc(r.next),
		StepLimit: r.limit,
		Log:       r.log,
	})
	if err != nil && (res == nil || !errors.Is(err, sim.ErrWaitFreedom)) {
		return run.Verdict{}, runStats{}, err
	}
	return r.eval.Evaluate(res, err), statsOf(res, r.budget), nil
}

// crossLeaf replays one leaf on the compiled execState, converting a
// chooser stale-choice panic (the compiled form branching where the
// reference did not) into a divergence error instead of crashing the sweep.
func crossLeaf(es *execState) (v run.Verdict, stats runStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compiled form diverged structurally: %v", r)
		}
	}()
	v, stats, _, err = es.runLeaf(context.Background())
	if err != nil {
		err = fmt.Errorf("compiled leaf failed: %w", err)
	}
	return v, stats, err
}

// diffLeaf compares every observable of one leaf across the two forms and
// describes the first difference ("" when identical).
func diffLeaf(ref *reference, ces *execState, iv, cv run.Verdict, istats, cstats runStats) string {
	ic, cc := ref.c, ces.c
	if cc.pos != len(ic.path) || len(cc.path) != len(ic.path) {
		return fmt.Sprintf("choice path: reference used %v, compiled consumed %d of %v",
			ic.path, cc.pos, cc.path)
	}
	if !reflect.DeepEqual(ref.schedule, ces.schedule) {
		return fmt.Sprintf("schedule: reference %v, compiled %v", ref.schedule, ces.schedule)
	}
	if iv.Violation != cv.Violation || iv.Detail != cv.Detail {
		return fmt.Sprintf("verdict: reference %s, compiled %s", iv.String(), cv.String())
	}
	if iv.Agreed != cv.Agreed || iv.Stopped != cv.Stopped ||
		!reflect.DeepEqual(iv.Decided, cv.Decided) || !reflect.DeepEqual(iv.Decisions, cv.Decisions) {
		return fmt.Sprintf("decisions: reference %s (stopped=%v), compiled %s (stopped=%v)",
			iv.String(), iv.Stopped, cv.String(), cv.Stopped)
	}
	if istats != cstats {
		return fmt.Sprintf("stats: reference maxSteps=%d faults=%d, compiled maxSteps=%d faults=%d",
			istats.maxSteps, istats.faults, cstats.maxSteps, cstats.faults)
	}
	if diff := diffEvents(ref.log.Events(), ces.log.Events()); diff != "" {
		return "trace: " + diff
	}
	return ""
}
