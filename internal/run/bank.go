package run

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/word"
)

// Bank is the common surface of a CAS-object bank, satisfied by both
// substrates: the deterministic simulator's object.Bank and the
// real-atomics atomicx.Bank. Code written against Bank — the reference
// Programs — runs unchanged on either substrate, with no type switches.
//
// Bind returns the bank as seen by one process. On the simulator the
// process handle gates each CAS behind a scheduled atomic step; on real
// atomics the calling goroutine is the process and the handle is ignored
// (nil is allowed there).
type Bank interface {
	// Bind returns the environment of one process.
	Bind(p *sim.Proc) core.Env
	// Len returns the number of CAS objects in the bank.
	Len() int
	// Reset restores every object to ⊥ (fresh executions).
	Reset()
	// Contents returns a snapshot of all register contents. Monitor-side
	// only; on real atomics the snapshot is not atomic across objects.
	Contents() []word.Word
	// Ops returns the number of CAS invocations executed so far.
	Ops() int64
}
