package run

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/word"
)

// RequireSteppable refuses a protocol without a compiled form. Every
// simulated execution runs the protocol's core.Stepper on the sim stepped
// runner; the paper-shaped Decide is kept only as the reference the
// differential tests compare against.
func RequireSteppable(p core.Protocol) error {
	if _, ok := p.(core.Steppable); !ok {
		return fmt.Errorf("run: protocol %s does not implement core.Steppable (every simulated execution runs its compiled form)", p.Name())
	}
	return nil
}

// Simulate runs one execution of the protocol's compiled form over a bank
// and a scheduler the caller built: cfg carries the scheduler, the trace
// log and the observer; Simulate fills in the process count and the
// program. A zero cfg.StepLimit means the protocol's StepBound for
// len(inputs) processes. It is the one place the drivers outside the
// exploration engine (single runs, stress, PCT, valency, the adversaries,
// the cost tables) wire up a simulated execution.
func Simulate(ctx context.Context, proto core.Protocol, bank *object.Bank, inputs []int64, cfg sim.SteppedConfig) (*sim.Result, error) {
	stepper, ok := core.Compile(proto)
	if !ok {
		return nil, RequireSteppable(proto)
	}
	cfg.Procs = len(inputs)
	cfg.Program = NewSteppedExec(stepper, bank, inputs)
	if cfg.StepLimit <= 0 {
		cfg.StepLimit = proto.StepBound(len(inputs))
	}
	return sim.RunStepped(ctx, cfg)
}

// SteppedExec adapts a compiled protocol to the sim stepped runner: one
// core.Stepper shared by all processes, one State and one bank-bound
// environment per process. It is reusable across executions — Begin
// re-initializes a process's machine — provided the bank is Reset between
// executions by the caller.
type SteppedExec struct {
	stepper core.Stepper
	inputs  []int64
	states  []core.State
	envs    []steppedEnv
}

// NewSteppedExec builds the adapter for one (stepper, bank, inputs) triple.
func NewSteppedExec(stepper core.Stepper, bank *object.Bank, inputs []int64) *SteppedExec {
	x := &SteppedExec{
		stepper: stepper,
		inputs:  inputs,
		states:  make([]core.State, len(inputs)),
		envs:    make([]steppedEnv, len(inputs)),
	}
	for i := range x.envs {
		x.envs[i] = steppedEnv{bank: bank, proc: i}
	}
	return x
}

// Begin implements sim.SteppedProgram.
func (x *SteppedExec) Begin(id int) { x.states[id] = x.stepper.Begin(x.inputs[id]) }

// States returns the per-process machine states, indexed by process id.
// The slice is the adapter's own: the model checker copies it out at a
// step boundary and back in to resume from there, which the Stepper
// contract allows because a machine keeps all its state in its State.
func (x *SteppedExec) States() []core.State { return x.states }

// PendingOp is the CAS a process issues on its next step: the object index
// and the exp/new arguments.
type PendingOp struct {
	Obj int
	Exp word.Word
	New word.Word
}

// Pending reports process id's next CAS, computed from its machine state
// without performing it (core.Stepper.Pending).
func (x *SteppedExec) Pending(id int) PendingOp {
	obj, exp, new := x.stepper.Pending(&x.states[id])
	return PendingOp{Obj: obj, Exp: exp, New: new}
}

// Footprint reports the object interval process id's remaining execution
// may touch (core.Stepper.Footprint on its current state).
func (x *SteppedExec) Footprint(id int) (lo, hi int) {
	return x.stepper.Footprint(&x.states[id])
}

// Step implements sim.SteppedProgram: one Stepper step against the bank.
// A nonresponsive fault surfaces as a stalled outcome, exactly like
// object.CAS.Invoke stalling a process of the goroutine reference;
// whatever the machine computed after the stalling CAS is discarded with
// it.
func (x *SteppedExec) Step(id int, rec *sim.StepRecorder) sim.StepOutcome {
	env := &x.envs[id]
	env.rec = rec
	env.stalled = false
	done, decided := x.stepper.Step(&x.states[id], env)
	env.rec = nil
	if env.stalled {
		return sim.StepOutcome{Stalled: true}
	}
	if done {
		return sim.StepOutcome{Done: true, Decision: word.FromValue(decided)}
	}
	return sim.StepOutcome{}
}

// steppedEnv is the core.Env one process sees on the compiled path: each
// CAS applies the object's full fault pipeline directly (the stepped runner
// granted this step, so no scheduling handshake is needed) and records the
// event, mirroring object.CAS.Invoke minus the park.
type steppedEnv struct {
	bank    *object.Bank
	proc    int
	rec     *sim.StepRecorder
	stalled bool
}

// CAS implements core.Env.
func (e *steppedEnv) CAS(i int, exp, new word.Word) word.Word {
	old, ev := e.bank.Object(i).Apply(e.proc, exp, new)
	e.rec.Record(ev)
	if ev.Fault == fault.Nonresponsive {
		e.stalled = true
	}
	return old
}

// Len implements core.Env.
func (e *steppedEnv) Len() int { return e.bank.Len() }
