package explore

import (
	"context"
	"math/rand"

	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
)

// StressPCTWith is the unified-options form of StressPCT.
func StressPCTWith(runs int, seed int64, depth, stepEstimate int, opts ...run.Option) (*StressOutcome, error) {
	return StressPCT(ConfigFrom(run.NewSettings(opts...)), runs, seed, depth, stepEstimate)
}

// StressPCT samples executions like Stress but schedules each run with a
// PCT scheduler (random priorities, depth−1 priority change points) instead
// of a uniform random walk. The paper's impossibility executions are long
// solo bursts punctuated by a few targeted preemptions — exactly the
// schedule shape PCT generates — so for deep violations (e.g. the covering
// execution of Theorem 19 at f ≥ 2) PCT reaches them orders of magnitude
// sooner than uniform sampling. stepEstimate bounds where change points are
// drawn (0 picks a default from the protocol's solo execution length).
func StressPCT(cfg Config, runs int, seed int64, depth, stepEstimate int) (*StressOutcome, error) {
	kind, err := cfg.sampleKind()
	if err != nil {
		return nil, err
	}
	if stepEstimate <= 0 {
		// A solo run is the natural length scale of a PCT burst; the
		// cheap estimate below is the step count of an uncontended
		// fault-free execution times the process count.
		stepEstimate = soloSteps(cfg) * len(cfg.Inputs)
		if stepEstimate < 8 {
			stepEstimate = 8
		}
	}

	rng := rand.New(rand.NewSource(seed))
	out := &StressOutcome{}
	for i := 0; i < runs; i++ {
		sched := sim.NewPCT(rng.Int63(), stepEstimate, depth)
		ce, verdict, stats, err := sampleOnce(cfg, kind, rng, sched)
		if err != nil {
			return nil, err
		}
		out.add(ce, verdict, stats)
	}
	return out, nil
}

// soloSteps measures the fault-free solo execution length of the protocol.
func soloSteps(cfg Config) int {
	bank := object.NewBank(cfg.Protocol.Objects(), nil, nil)
	res, err := run.Simulate(context.Background(), cfg.Protocol, bank, cfg.Inputs[:1],
		sim.SteppedConfig{Scheduler: sim.NewRoundRobin()})
	if err != nil || len(res.Steps) == 0 {
		return 8
	}
	return res.Steps[0]
}
