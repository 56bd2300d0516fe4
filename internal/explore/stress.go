package explore

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StressOutcome summarizes a randomized exploration.
type StressOutcome struct {
	// Runs is the number of random executions performed.
	Runs int
	// Violations is the number of runs that violated a requirement.
	Violations int
	// First is the first violating execution found, or nil.
	First *Counterexample
	// MaxProcSteps is the largest per-process step count observed.
	MaxProcSteps int
	// TotalFaults is the sum of fault counts across runs.
	TotalFaults int
}

// OK reports that no violation was observed.
func (o *StressOutcome) OK() bool { return o.Violations == 0 }

// Rate returns the fraction of violating runs.
func (o *StressOutcome) Rate() float64 {
	if o.Runs == 0 {
		return 0
	}
	return float64(o.Violations) / float64(o.Runs)
}

// StressWith is the unified-options form of Stress: the execution space is
// described by run.With... options instead of a Config literal.
func StressWith(runs int, seed int64, opts ...run.Option) (*StressOutcome, error) {
	return Stress(ConfigFrom(run.NewSettings(opts...)), runs, seed)
}

// SampleWith is the unified-options form of Sample.
func SampleWith(seed int64, opts ...run.Option) (*Counterexample, error) {
	return Sample(ConfigFrom(run.NewSettings(opts...)), seed)
}

// Stress samples the execution tree uniformly at random (both scheduling and
// fault decisions) for the given number of runs. It is the scalable
// complement to Check for configurations whose trees are too large to
// enumerate; a deterministic seed makes the whole batch replayable.
func Stress(cfg Config, runs int, seed int64) (*StressOutcome, error) {
	kind, err := cfg.sampleKind()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	out := &StressOutcome{}
	for i := 0; i < runs; i++ {
		ce, verdict, stats, err := sampleOnce(cfg, kind, rng, uniform(rng))
		if err != nil {
			return nil, err
		}
		out.add(ce, verdict, stats)
	}
	return out, nil
}

// add folds one sampled execution into the outcome.
func (o *StressOutcome) add(ce *Counterexample, verdict run.Verdict, stats runStats) {
	o.Runs++
	o.TotalFaults += stats.faults
	if stats.maxSteps > o.MaxProcSteps {
		o.MaxProcSteps = stats.maxSteps
	}
	if !verdict.OK() {
		o.Violations++
		if o.First == nil {
			o.First = ce
		}
	}
}

// Sample runs one uniformly random execution (scheduling and fault
// decisions both random, derived from the seed) and returns its record —
// verdict, schedule, and trace. Use it to tally violation kinds over many
// seeds where Stress's aggregate view is not enough.
func Sample(cfg Config, seed int64) (*Counterexample, error) {
	kind, err := cfg.sampleKind()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ce, _, _, err := sampleOnce(cfg, kind, rng, uniform(rng))
	return ce, err
}

// sampleKind validates a sampling configuration and resolves its fault
// kind.
func (cfg *Config) sampleKind() (fault.Kind, error) {
	if cfg.Protocol == nil {
		return 0, fmt.Errorf("explore: no protocol")
	}
	if len(cfg.Inputs) == 0 {
		return 0, fmt.Errorf("explore: no inputs")
	}
	if err := run.RequireSteppable(cfg.Protocol); err != nil {
		return 0, err
	}
	if cfg.Kind == fault.None {
		return fault.Overriding, nil
	}
	return cfg.Kind, nil
}

// uniform is the random-walk scheduler: every step grants a uniformly
// chosen enabled process.
func uniform(rng *rand.Rand) sim.Scheduler {
	return sim.SchedulerFunc(func(enabled []int) (int, bool) {
		return enabled[rng.Intn(len(enabled))], true
	})
}

// sampleOnce runs one execution scheduled by sched, with every admissible
// observable fault injected or not by a coin drawn from rng.
func sampleOnce(cfg Config, kind fault.Kind, rng *rand.Rand, sched sim.Scheduler) (*Counterexample, run.Verdict, runStats, error) {
	budget := fault.NewFixedBudget(cfg.FaultyObjects, cfg.FaultsPerObject)
	policy := fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if !budget.Admits(op.Object) || !observable(kind, op) {
			return fault.NoFault
		}
		if rng.Intn(2) == 1 {
			return fault.Proposal{Kind: kind}
		}
		return fault.NoFault
	})

	bank := object.NewBank(cfg.Protocol.Objects(), budget, policy)
	var schedule []int
	log := trace.New()
	res, err := run.Simulate(context.Background(), cfg.Protocol, bank, cfg.Inputs, sim.SteppedConfig{
		Scheduler: sim.SchedulerFunc(func(enabled []int) (int, bool) {
			pick, ok := sched.Next(enabled)
			if ok {
				schedule = append(schedule, pick)
			}
			return pick, ok
		}),
		StepLimit: cfg.StepLimit,
		Log:       log,
	})
	if err != nil && res == nil {
		return nil, run.Verdict{}, runStats{}, err
	}

	verdict := run.Evaluate(cfg.Inputs, res, err)
	ce := &Counterexample{
		Schedule: schedule,
		Verdict:  verdict,
		Trace:    log,
		Inputs:   cfg.Inputs,
	}
	return ce, verdict, statsOf(res, budget), nil
}
