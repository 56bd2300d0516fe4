package explore

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/store"
)

// ManifestFor renders an exploration's verdict-relevant settings as a run
// manifest — the identity a checkpoint directory is bound to. Two
// explorations with equal manifests (by store.Manifest.Hash) enumerate the
// same execution tree, so resuming one from the other's checkpoint is sound;
// everything else (worker count, dedup, execution cap) is recorded as
// advisory metadata only. Every exploration runs the compiled form; its
// label stays hashed, so a run directory explored by the goroutine form an
// older build could select ("interpreted") is refused on resume.
func ManifestFor(cfg Config, exhaustive, dedupOn bool) (store.Manifest, error) {
	if cfg.Protocol == nil {
		return store.Manifest{}, fmt.Errorf("explore: no protocol")
	}
	kind := cfg.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	reduce := ""
	if cfg.Reduce != run.ReduceOff {
		reduce = cfg.Reduce.String()
	}
	return store.Manifest{
		Engine:          "explore.Engine",
		Exec:            "compiled",
		Reduce:          reduce,
		Protocol:        cfg.Protocol.Name(),
		Objects:         cfg.Protocol.Objects(),
		Inputs:          cfg.Inputs,
		FaultyObjects:   cfg.FaultyObjects,
		FaultsPerObject: cfg.FaultsPerObject,
		Kind:            kind.String(),
		StepLimit:       cfg.StepLimit,
		Exhaustive:      exhaustive,
		MaxExecutions:   cfg.MaxExecutions,
		Dedup:           dedupOn,
	}, nil
}
