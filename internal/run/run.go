// Package run wires a consensus protocol to the deterministic simulator and
// evaluates the consensus correctness conditions of Section 2 of the paper:
// validity (the decision is some process's input), consistency (all deciders
// agree), and wait-freedom (every process decides within its step bound).
package run

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// Programs builds one program per input value for the goroutine-gated
// reference simulator (sim.Run), each executing the protocol's paper-shaped
// Decide against the shared bank. Production drivers run the compiled form
// (Simulate); Programs is the reference the differential checker
// (explore.CrossCheck) and the object tests compare against.
func Programs(proto core.Protocol, bank Bank, inputs []int64) []sim.Program {
	progs := make([]sim.Program, len(inputs))
	for i, input := range inputs {
		input := input
		progs[i] = func(p *sim.Proc) word.Word {
			return word.FromValue(proto.Decide(bank.Bind(p), input))
		}
	}
	return progs
}

// Config describes one simulated consensus execution.
//
// Deprecated: new code should describe executions with the unified
// functional options (NewSettings / ConsensusWith and the run.With...
// constructors); Config remains as a thin shim for one release.
type Config struct {
	Protocol core.Protocol
	// Inputs holds one input value per process; len(Inputs) is n.
	Inputs []int64
	// Scheduler chooses the interleaving; defaults to round-robin.
	Scheduler sim.Scheduler
	// Budget limits faults per Definition 3; nil means no faults admitted.
	Budget *fault.Budget
	// Policy proposes faults; nil means none.
	Policy fault.Policy
	// Trace enables event recording.
	Trace bool
	// Observer, when non-nil, sees every recorded event (requires Trace
	// or is invoked with synthesized events).
	Observer func(trace.Event)
	// StepLimit overrides the protocol's StepBound when positive.
	StepLimit int
}

// Result bundles the simulation outcome with its verdict.
type Result struct {
	Sim     *sim.Result
	Verdict Verdict
	Bank    *object.Bank
}

// Consensus runs one execution and evaluates it. An error is returned only
// for framework-level failures (program panic, cancellation); a
// wait-freedom violation is reported through the verdict, since for the
// impossibility experiments a violation is the expected observation, not an
// error.
func Consensus(cfg Config) (*Result, error) {
	return ConsensusContext(context.Background(), cfg)
}

// ConsensusContext is Consensus with cancellation: when ctx is cancelled
// mid-execution the partial result is returned together with ctx.Err().
func ConsensusContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("run: no protocol")
	}
	if len(cfg.Inputs) == 0 {
		return nil, fmt.Errorf("run: no inputs")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = sim.NewRoundRobin()
	}
	bank := object.NewBank(cfg.Protocol.Objects(), cfg.Budget, cfg.Policy)
	steppedCfg := sim.SteppedConfig{
		Scheduler: sched,
		StepLimit: cfg.StepLimit,
		Observer:  cfg.Observer,
	}
	if cfg.Trace {
		steppedCfg.Log = trace.New()
	}
	res, err := Simulate(ctx, cfg.Protocol, bank, cfg.Inputs, steppedCfg)
	if err != nil && res == nil {
		return nil, err
	}
	verdict := Evaluate(cfg.Inputs, res, err)
	result := &Result{Sim: res, Verdict: verdict, Bank: bank}
	// A wait-freedom violation is folded into the verdict (it is an
	// observation, not a failure). Any other partial-result error —
	// cancellation, a future simulator condition — must reach the caller:
	// silently evaluating the truncated execution would report a verdict
	// for an execution that never ran to its end.
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		return result, err
	}
	return result, nil
}
