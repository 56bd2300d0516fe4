package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
)

// costConfig is one row of the E8 cost sweep.
type costConfig struct {
	name      string
	proto     core.Protocol
	faulty    int     // number of faulty objects (0 = fault-free)
	boundedT  int     // per-object fault bound; fault.Unbounded for ∞
	faultRate float64 // per-invocation fault probability
	procs     int     // concurrent goroutines
}

// substrate runs one consensus instance: it builds a fresh bank, lets
// cfg.procs processes decide on it, and reports the decisions and the CAS
// invocations the bank counted — uniformly across substrates, so the
// measurement loop is one code path.
type substrate struct {
	name string
	run  func(cfg costConfig, round int, seed int64) (results []int64, ops int64, err error)
}

// realAtomics races native goroutines on the lock-free environment: the
// deployment-shaped measurement.
func realAtomics() substrate {
	return substrate{
		name: "atomics",
		run: func(cfg costConfig, round int, seed int64) ([]int64, int64, error) {
			var bank *atomicx.Bank
			if cfg.faulty > 0 {
				bank = atomicx.NewFaultyBank(cfg.proto.Objects(),
					fault.NewFixedBudget(objectIDs(cfg.faulty), cfg.boundedT),
					cfg.faultRate, seed+int64(round))
			} else {
				bank = atomicx.NewBank(cfg.proto.Objects())
			}
			results := make([]int64, cfg.procs)
			var wg sync.WaitGroup
			for g := 0; g < cfg.procs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g] = cfg.proto.Decide(bank, int64(100+g))
				}(g)
			}
			wg.Wait()
			return results, bank.Ops(), nil
		},
	}
}

// simulated runs the same instance on the step-granting simulator under a
// seeded random schedule — the model-checking-shaped measurement, for
// calibrating simulated against native op counts.
func simulated() substrate {
	return substrate{
		name: "simulator",
		run: func(cfg costConfig, round int, seed int64) ([]int64, int64, error) {
			policy := fault.Never()
			if cfg.faulty > 0 {
				policy = fault.Rate(fault.Overriding, cfg.faultRate, seed+int64(round))
			}
			bank := object.NewBank(cfg.proto.Objects(),
				fault.NewFixedBudget(objectIDs(cfg.faulty), cfg.boundedT), policy)
			inputs := make([]int64, cfg.procs)
			for g := range inputs {
				inputs[g] = int64(100 + g)
			}
			res, err := run.Simulate(context.Background(), cfg.proto, bank, inputs,
				sim.SteppedConfig{Scheduler: sim.NewRandom(seed + int64(round))})
			if err != nil {
				return nil, 0, err
			}
			results := make([]int64, cfg.procs)
			for g := range results {
				if !res.Decided[g] {
					return nil, 0, fmt.Errorf("process %d did not decide", g)
				}
				results[g] = res.Decisions[g].Value()
			}
			return results, bank.Ops(), nil
		},
	}
}

// measureCost times `rounds` one-shot consensus instances on the given
// substrate, returning ns per decide call and the mean CAS invocations per
// decide call (counted by the bank, uniformly across substrates).
func measureCost(cfg costConfig, sub substrate, rounds int, seed int64) (nsPerDecide float64, casPerDecide float64, err error) {
	var totalOps int64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		results, ops, err := sub.run(cfg, r, seed)
		if err != nil {
			return 0, 0, fmt.Errorf("round %d (%s/%s): %w", r, cfg.name, sub.name, err)
		}
		totalOps += ops
		for g := 1; g < len(results); g++ {
			if results[g] != results[0] {
				return 0, 0, fmt.Errorf("round %d: disagreement %v under %s/%s",
					r, results, cfg.name, sub.name)
			}
		}
	}
	elapsed := time.Since(start)
	decides := float64(rounds * cfg.procs)
	nsPerDecide = float64(elapsed.Nanoseconds()) / decides
	casPerDecide = float64(totalOps) / decides
	return nsPerDecide, casPerDecide, nil
}

// runE8 measures the practical cost of each construction: the baseline
// single CAS is cheapest, Figure 2 costs f+1 CAS steps, and Figure 3 pays
// for its stage budget t·(4f+f²) — the price of surviving with zero
// reliable objects. Each configuration is measured on real atomics and,
// at the lowest concurrency, cross-checked on the simulator through the
// same measurement loop.
func runE8(w io.Writer, opts Options) error {
	rounds := 3000
	simRounds := 300
	procsList := []int{2, 4, 8}
	if opts.Quick {
		rounds = 300
		simRounds = 50
		procsList = []int{2, 4}
	}

	t := NewTable("protocol", "objects", "procs", "substrate", "fault cfg", "ns/decide", "CAS/decide")
	type rowResult struct {
		name string
		ns   float64
	}
	var baseline, staged21 *rowResult

	for _, procs := range procsList {
		// Figure 3 instances are only fault-tolerant up to f+1 processes
		// (Theorem 6, tight by Theorem 19 — see E5), so each staged row
		// is sized with f = procs−1 to match the requested concurrency.
		configs := []costConfig{
			{"baseline single CAS", core.SingleCAS{}, 0, 0, 0, procs},
			{"figure2 f=1", core.NewFPlusOne(1), 1, fault.Unbounded, 0.3, procs},
			{"figure2 f=3", core.NewFPlusOne(3), 3, fault.Unbounded, 0.3, procs},
			{fmt.Sprintf("figure3 f=%d,t=1", procs-1), core.NewStaged(procs-1, 1), procs - 1, 1, 0.3, procs},
			{fmt.Sprintf("figure3 f=%d,t=2", procs-1), core.NewStaged(procs-1, 2), procs - 1, 2, 0.3, procs},
		}
		for _, cfg := range configs {
			if cfg.proto.MaxProcs() != 0 && cfg.procs > cfg.proto.MaxProcs() && cfg.faulty > 0 {
				return fmt.Errorf("E8: misconfigured row %q: %d procs exceeds tolerance bound %d",
					cfg.name, cfg.procs, cfg.proto.MaxProcs())
			}
			faultCfg := "fault-free"
			if cfg.faulty > 0 {
				tStr := "∞"
				if cfg.boundedT != fault.Unbounded {
					tStr = fmt.Sprintf("%d", cfg.boundedT)
				}
				faultCfg = fmt.Sprintf("f=%d t=%s p=%.1f", cfg.faulty, tStr, cfg.faultRate)
			}
			subs := []struct {
				substrate
				rounds int
			}{{realAtomics(), rounds}}
			if procs == procsList[0] {
				subs = append(subs, struct {
					substrate
					rounds int
				}{simulated(), simRounds})
			}
			for _, sub := range subs {
				ns, cas, err := measureCost(cfg, sub.substrate, sub.rounds, opts.Seed)
				if err != nil {
					return fmt.Errorf("E8: %w", err)
				}
				t.Add(cfg.name, cfg.proto.Objects(), procs, sub.name, faultCfg, ns, cas)
				if procs == procsList[0] && sub.name == "atomics" {
					switch {
					case cfg.name == "baseline single CAS":
						baseline = &rowResult{cfg.name, ns}
					case staged21 == nil && strings.HasPrefix(cfg.name, "figure3") && strings.HasSuffix(cfg.name, "t=1"):
						staged21 = &rowResult{cfg.name, ns}
					}
				}
			}
		}
	}
	t.Render(w)

	// Shape check: the fault-tolerant staged construction must cost more
	// than the unprotected baseline (the paper's constructions trade
	// steps for tolerance; if this inverts, the harness is mismeasuring).
	if baseline != nil && staged21 != nil && staged21.ns <= baseline.ns {
		return fmt.Errorf("E8: cost ordering inverted: %s (%.1f ns) <= %s (%.1f ns)",
			staged21.name, staged21.ns, baseline.name, baseline.ns)
	}
	fmt.Fprintf(w, "\ncost ordering holds: baseline (%.0f ns/decide) < figure3 f=2,t=1 (%.0f ns/decide)\n",
		baseline.ns, staged21.ns)
	return nil
}
