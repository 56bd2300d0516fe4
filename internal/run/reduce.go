package run

import "fmt"

// ReduceMode selects how aggressively the exploration engine prunes
// redundant interleavings via dynamic partial-order reduction (sleep sets
// over the choice path plus branch-time process-symmetry skipping; see
// docs/MODEL.md, "Partial-order reduction").
//
// The reduction mode changes WHICH schedules are replayed, so it
// participates in manifests and trace meta: a resumed run, a joining
// ledger worker, and -explain all refuse artifacts recorded under a
// different mode — their choice paths are coordinates in a different tree.
type ReduceMode int

const (
	// ReduceOff (the default) explores every schedule the fault-aware
	// chooser enumerates, exactly as before reduction existed.
	ReduceOff ReduceMode = iota
	// ReduceSafe prunes only schedules provably equivalent to a
	// lexicographically smaller explored one, preserving the engine's
	// lex-least counterexample guarantee and exact verdicts.
	ReduceSafe
	// ReduceAggressive adds persistent-set pruning from whole-future object
	// footprints. Verdicts (violation found / verified) are preserved, but
	// the reported counterexample need not be the lex-least one.
	// Footprints come from the step machines' states.
	ReduceAggressive
)

// String renders the mode as its meta/flag spelling.
func (m ReduceMode) String() string {
	switch m {
	case ReduceSafe:
		return "on"
	case ReduceAggressive:
		return "aggressive"
	default:
		return "off"
	}
}

// ParseReduceMode is the inverse of ReduceMode.String (CLI flags, meta).
func ParseReduceMode(s string) (ReduceMode, error) {
	switch s {
	case "", "off", "false":
		return ReduceOff, nil
	case "on", "true", "safe":
		return ReduceSafe, nil
	case "aggressive":
		return ReduceAggressive, nil
	default:
		return ReduceOff, fmt.Errorf("run: unknown reduction mode %q (want off, on, or aggressive)", s)
	}
}
