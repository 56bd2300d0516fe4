package explore

import (
	"context"
	"fmt"
)

// Subsets enumerates all size-k subsets of {0, .., n-1} in lexicographic
// order — the adversary's possible commitments to a faulty-object set.
func Subsets(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	subset := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			out = append(out, append([]int(nil), subset...))
			return
		}
		for i := start; i <= n-(k-idx); i++ {
			subset[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	return out
}

// CheckAllSubsets runs Check once per size-f subset of the protocol's
// objects as the faulty set — the full quantifier of Definition 3 ("at most
// f faulty objects", adversary's choice). It returns the first violating
// outcome, or the combined outcome if every subset verifies.
func CheckAllSubsets(cfg Config, f int) (*Outcome, error) {
	return checkAllSubsets(cfg, f, func(c Config) (*Outcome, error) { return Check(c) })
}

// CheckAllSubsets is the engine form of the package-level CheckAllSubsets:
// subsets are examined in deterministic lexicographic order, each explored
// in parallel by the engine's workers.
func (e *Engine) CheckAllSubsets(ctx context.Context, cfg Config, f int) (*Outcome, error) {
	return checkAllSubsets(cfg, f, func(c Config) (*Outcome, error) { return e.Check(ctx, c) })
}

func checkAllSubsets(cfg Config, f int, check func(Config) (*Outcome, error)) (*Outcome, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("explore: no protocol")
	}
	objects := cfg.Protocol.Objects()
	subsets := Subsets(objects, f)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("explore: no size-%d subsets of %d objects", f, objects)
	}
	total := &Outcome{Complete: true}
	for _, sub := range subsets {
		c := cfg
		c.FaultyObjects = sub
		out, err := check(c)
		if err != nil {
			return nil, err
		}
		total.Executions += out.Executions
		if out.MaxProcSteps > total.MaxProcSteps {
			total.MaxProcSteps = out.MaxProcSteps
		}
		if out.MaxFaults > total.MaxFaults {
			total.MaxFaults = out.MaxFaults
		}
		if !out.Complete {
			total.Complete = false
		}
		if out.Violation != nil {
			total.Violation = out.Violation
			return total, nil
		}
	}
	return total, nil
}

// FindMinimal enumerates the COMPLETE execution tree (no early exit on the
// first violation) and returns the violating execution with the shortest
// schedule, or nil if none exists. Use it on small configurations to
// extract the crispest counterexample for a report; Check is the fast path.
func FindMinimal(cfg Config) (*Counterexample, *Outcome, error) {
	kind, cap, err := cfg.prepare()
	if err != nil {
		return nil, nil, err
	}

	out := &Outcome{Workers: 1}
	var best *Counterexample
	c := &chooser{}
	es := newExecState(cfg, kind, c, nil)
	for out.Executions < cap {
		verdict, stats, _, err := es.runLeaf(context.Background())
		if err != nil {
			return nil, nil, err
		}
		out.Executions++
		if stats.maxSteps > out.MaxProcSteps {
			out.MaxProcSteps = stats.maxSteps
		}
		if stats.faults > out.MaxFaults {
			out.MaxFaults = stats.faults
		}
		if !verdict.OK() {
			ce := es.counterexample(verdict)
			if best == nil || len(ce.Schedule) < len(best.Schedule) {
				best = ce
			}
		}
		if !c.next() {
			out.Complete = true
			break
		}
	}
	out.Violation = best
	return best, out, nil
}
