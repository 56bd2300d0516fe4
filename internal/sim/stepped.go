// The stepped runner is how every driver simulates a protocol: it executes
// an entire schedule in one tight loop on the calling goroutine. Where the
// goroutine-gated reference runner (Run) suspends each process inside a
// blocked Program closure (park, grant, channel handshake — two scheduler
// hops per atomic step), the stepped runner advances explicitly resumable
// state machines (core.Stepper, adapted through SteppedProgram), so
// granting a step is a plain function call. Run remains the reference
// semantics; the stepped runner reproduces its observable behaviour
// exactly — same scheduling decisions, same step accounting, same trace
// events in the same order, same errors byte for byte — which
// explore.CrossCheck and the differential fuzz tests enforce.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/word"
)

// SteppedProgram is the code of all processes of one stepped execution, in
// resumable form. Begin initializes process id's machine (local computation
// only — no shared-memory operation and no recording); each Step call
// performs process id's next atomic step, records its trace events through
// rec, and reports how the process left the step. One Step call must
// perform exactly one shared-object operation: it is the unit the scheduler
// granted, and the step accounting (wait-freedom bounds) counts Step calls.
type SteppedProgram interface {
	Begin(id int)
	Step(id int, rec *StepRecorder) StepOutcome
}

// StepOutcome reports how a process left one granted step.
type StepOutcome struct {
	// Done means the process decided (in this step) with Decision.
	Done bool
	// Stalled means a nonresponsive fault parked the process forever; it
	// takes no further steps and never decides. Stalled overrides Done.
	Stalled bool
	// Decision is the decided value (valid when Done).
	Decision word.Word
}

// StepRecorder appends events to the execution trace on behalf of the
// process taking the current step — the stepped counterpart of Proc.Record.
type StepRecorder struct {
	log      *trace.Log
	observer func(trace.Event)
}

// Record appends an event to the trace and notifies the observer, exactly
// as the reference runner does: the observer sees the event with its log index.
func (r *StepRecorder) Record(e trace.Event) {
	if r.log != nil {
		r.log.Append(e)
		if r.observer != nil {
			e.Index = r.log.Len() - 1
			r.observer(e)
		}
		return
	}
	if r.observer != nil {
		r.observer(e)
	}
}

// SteppedConfig describes one stepped execution. The fields mirror Config;
// Programs is replaced by the resumable Program plus the process count.
type SteppedConfig struct {
	// Procs is the number of processes; process ids are 0..Procs-1.
	Procs int
	// Program is the resumable code of all processes. Required.
	Program SteppedProgram
	// Scheduler chooses the interleaving. Required.
	Scheduler Scheduler
	// StepLimit bounds the number of atomic steps any single process may
	// take (0 means DefaultStepLimit), as in Config.
	StepLimit int
	// Log, when non-nil, records every step.
	Log *trace.Log
	// Observer, when non-nil, is called synchronously after each recorded
	// event.
	Observer func(trace.Event)
}

// Stepped is the reusable runner state for stepped executions. A Stepped is built for a
// fixed process count and can run any number of executions in sequence; it
// holds no goroutines, so there is nothing to Close. Not safe for
// concurrent Runs.
type Stepped struct {
	n         int
	decided   []bool
	decisions []word.Word
	steps     []int
	stalled   []bool
	runnable  []bool
	live      int
	enabled   []int
	rec       StepRecorder
	res       Result
	// calls counts Step calls over the runner's lifetime (StepCalls).
	calls int64
}

// NewStepped returns a reusable stepped runner for n processes.
func NewStepped(n int) *Stepped {
	if n <= 0 {
		panic("sim: stepped runner needs at least one process")
	}
	return &Stepped{
		n:         n,
		decided:   make([]bool, n),
		decisions: make([]word.Word, n),
		steps:     make([]int, n),
		stalled:   make([]bool, n),
		runnable:  make([]bool, n),
		enabled:   make([]int, 0, n),
	}
}

// Run executes one stepped simulation and returns its result. The returned
// Result's slices are owned by the runner and are invalidated by the next
// Run. The termination conditions and error behaviour match the reference
// runner's: the execution ends when every process has decided (or
// stalled), when the scheduler stops it, when ctx is cancelled between
// steps (partial result plus ctx.Err(), marked Stopped), or on a
// wait-freedom violation or program panic. Run never returns both a nil
// Result and a nil error.
func (s *Stepped) Run(ctx context.Context, cfg SteppedConfig) (*Result, error) {
	limit, err := s.check(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.n; i++ {
		s.decided[i] = false
		s.decisions[i] = word.Bottom
		s.steps[i] = 0
		s.stalled[i] = false
		s.runnable[i] = true
	}
	s.live = s.n

	// Initialization phase: the counterpart of the reference runner's
	// collection phase. Begin performs no shared-memory step, so afterwards every
	// process sits at its first step, exactly like a freshly parked
	// goroutine.
	for id := 0; id < s.n; id++ {
		if err := beginProc(cfg.Program, id); err != nil {
			return nil, err
		}
	}
	return s.loop(ctx, cfg, limit)
}

// Resume continues an execution from the runner's current state, between
// two steps, without re-initializing any process: typically a state
// installed by Restore, with the program's and the objects' state restored
// to the same step boundary by the caller. cfg must describe the execution
// the state came from. The result and errors are Run's.
func (s *Stepped) Resume(ctx context.Context, cfg SteppedConfig) (*Result, error) {
	limit, err := s.check(cfg)
	if err != nil {
		return nil, err
	}
	return s.loop(ctx, cfg, limit)
}

// check validates cfg and returns the effective step limit.
func (s *Stepped) check(cfg SteppedConfig) (int, error) {
	if cfg.Procs != s.n {
		return 0, fmt.Errorf("sim: %d processes for a %d-process stepped runner", cfg.Procs, s.n)
	}
	if cfg.Program == nil {
		return 0, errors.New("sim: no program")
	}
	if cfg.Scheduler == nil {
		return 0, errors.New("sim: no scheduler")
	}
	if cfg.StepLimit <= 0 {
		return DefaultStepLimit, nil
	}
	return cfg.StepLimit, nil
}

// loop grants one step at a time until the execution ends. Structure and
// error strings track the reference runner exactly — the differential
// checker compares both runners consuming scheduler decisions identically.
func (s *Stepped) loop(ctx context.Context, cfg SteppedConfig, limit int) (*Result, error) {
	s.rec = StepRecorder{log: cfg.Log, observer: cfg.Observer}
	for s.live > 0 {
		if err := ctx.Err(); err != nil {
			return s.result(cfg, true), err
		}
		s.enabled = s.enabled[:0]
		for id := 0; id < s.n; id++ {
			if s.runnable[id] {
				s.enabled = append(s.enabled, id)
			}
		}
		if len(s.enabled) == 0 {
			// All live processes are stalled: nothing can ever step.
			break
		}
		pick, ok := cfg.Scheduler.Next(s.enabled)
		if !ok {
			return s.result(cfg, true), nil
		}
		if pick < 0 || pick >= s.n || !s.runnable[pick] {
			return nil, fmt.Errorf("sim: scheduler picked process %d which is not enabled", pick)
		}
		s.steps[pick]++
		if s.steps[pick] > limit {
			return s.result(cfg, false), fmt.Errorf("%w: process %d exceeded %d steps", ErrWaitFreedom, pick, limit)
		}
		s.calls++
		out, err := stepProc(cfg.Program, pick, &s.rec)
		if err != nil {
			return nil, err
		}
		switch {
		case out.Stalled:
			s.stalled[pick] = true
			s.runnable[pick] = false
			s.live--
		case out.Done:
			s.decided[pick] = true
			s.decisions[pick] = out.Decision
			s.runnable[pick] = false
			s.live--
			// The decide event follows the step's own events, as in the
			// goroutine path (the program returns after its final CAS).
			s.rec.Record(trace.Event{Kind: trace.EventDecide, Proc: pick, Value: out.Decision})
		}
	}
	return s.result(cfg, false), nil
}

// StepCalls returns the number of Step calls the runner has made over its
// lifetime, across every Run and Resume.
func (s *Stepped) StepCalls() int64 { return s.calls }

// SteppedState is a saved copy of a stepped runner's per-process state at
// a step boundary (Stepped.Save). Its storage is reused by every Save into
// it.
type SteppedState struct {
	decided   []bool
	decisions []word.Word
	steps     []int
	stalled   []bool
}

// Save copies the runner's per-process state into dst. Call it between two
// steps — from the scheduler, which the runner consults at each step
// boundary.
func (s *Stepped) Save(dst *SteppedState) {
	dst.decided = append(dst.decided[:0], s.decided...)
	dst.decisions = append(dst.decisions[:0], s.decisions...)
	dst.steps = append(dst.steps[:0], s.steps...)
	dst.stalled = append(dst.stalled[:0], s.stalled...)
}

// Restore returns the runner to the state saved in src, ready for Resume.
func (s *Stepped) Restore(src *SteppedState) {
	copy(s.decided, src.decided)
	copy(s.decisions, src.decisions)
	copy(s.steps, src.steps)
	copy(s.stalled, src.stalled)
	s.live = 0
	for i := range s.runnable {
		s.runnable[i] = !s.decided[i] && !s.stalled[i]
		if s.runnable[i] {
			s.live++
		}
	}
}

// beginProc initializes one process, converting a panic into the same
// PanicError the reference runner reports for a program panicking before
// its first step.
func beginProc(prog SteppedProgram, id int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Proc: id, Value: v}
		}
	}()
	prog.Begin(id)
	return nil
}

// stepProc advances one process by one step, converting a panic into the
// same PanicError the reference runner reports for a program panicking
// mid-step.
func stepProc(prog SteppedProgram, id int, rec *StepRecorder) (out StepOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Proc: id, Value: v}
		}
	}()
	return prog.Step(id, rec), nil
}

func (s *Stepped) result(cfg SteppedConfig, stopped bool) *Result {
	s.res = Result{
		Decided:   s.decided,
		Decisions: s.decisions,
		Steps:     s.steps,
		Stalled:   s.stalled,
		Stopped:   stopped,
		Log:       cfg.Log,
	}
	return &s.res
}

// RunStepped executes one stepped simulation to completion — the one-shot
// form, mirroring RunContext. Repeated replays (the model checker's hot
// path) should hold a Stepped and call its Run directly.
func RunStepped(ctx context.Context, cfg SteppedConfig) (*Result, error) {
	if cfg.Procs <= 0 {
		return nil, errors.New("sim: no processes")
	}
	return NewStepped(cfg.Procs).Run(ctx, cfg)
}
