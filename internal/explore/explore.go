// Package explore is a bounded, exhaustive model checker for consensus
// executions in the functional-fault model.
//
// An execution of the simulator is a pure function of the protocol, the
// inputs, the scheduler's choices, and the fault choices (Definition 1
// faults fire only at operation boundaries, so a binary choice per
// admissible, observable CAS captures the entire adversary). The checker
// therefore enumerates the execution tree by replay: each run is driven by
// a choice path; after the run, the deepest branch point with an untaken
// alternative is advanced (depth-first, odometer style) and the next
// execution resumes from the flat machine state saved at the deepest
// scheduling decision the two paths share, so only the new suffix is
// executed. Wait-freedom of the protocols makes every path finite, so for
// small configurations the enumeration is complete — an empirical proof of
// the paper's possibility theorems, and a counterexample finder for its
// impossibility theorems.
package explore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/word"
)

// Config describes the space of executions to explore.
//
// Deprecated: new code should describe explorations with the unified
// functional options (CheckWith and the run.With... constructors); Config
// remains as a thin shim for one release.
type Config struct {
	// Protocol under test. Required.
	Protocol core.Protocol
	// Inputs holds one input per process. Required.
	Inputs []int64
	// FaultyObjects is the set of object ids the adversary may fault
	// (the paper's "at most f faulty objects", committed up front).
	// Empty means fault-free exploration.
	FaultyObjects []int
	// FaultsPerObject is the per-object fault bound t (fault.Unbounded
	// for t = ∞). Ignored when FaultyObjects is empty.
	FaultsPerObject int
	// Kind is the functional fault to inject; Overriding and Silent are
	// supported (the two one-sided branch faults of Sections 3.3–3.4).
	// Defaults to Overriding.
	Kind fault.Kind
	// FixedPolicy, when non-nil, replaces the checker's per-invocation
	// fault choices with a deterministic policy (still subject to the
	// budget), so only scheduling is explored. The reduced model of
	// Theorem 18 — one process whose CAS executions are always faulty —
	// is expressed this way. The policy must be a pure function of the
	// invocation: replays resume mid-execution, so a policy that counts
	// or draws per call would see only each replay's new suffix.
	FixedPolicy fault.Policy
	// MaxExecutions caps the enumeration. 0 means DefaultMaxExecutions.
	MaxExecutions int
	// StepLimit overrides the protocol's per-process step bound.
	StepLimit int
	// Reduce selects the partial-order reduction mode (default
	// run.ReduceOff): run.ReduceSafe prunes schedule branches via sleep
	// sets and process-symmetry canonicalization while preserving the
	// verdict and the lexicographically least counterexample;
	// run.ReduceAggressive additionally restricts branch points to
	// persistent sets computed from the step machines' object footprints
	// (verdict-preserving only).
	Reduce run.ReduceMode

	// onLeaf, when set, is called at the end of every replay that was not
	// cut short by an error, pruned or not. Tests observe the leaf
	// sequence through it.
	onLeaf func(es *execState, verdict run.Verdict, pruned bool)
}

// DefaultMaxExecutions bounds the enumeration when Config.MaxExecutions is 0.
const DefaultMaxExecutions = 200_000

// Counterexample is a violating execution, replayable via its Path (with
// the same Config) or its Schedule (with a sim.Script and scripted faults).
type Counterexample struct {
	// Path is the choice sequence driving the violating execution.
	Path []int
	// Schedule is the sequence of process ids granted steps, in order.
	Schedule []int
	// Verdict describes the violated requirement.
	Verdict run.Verdict
	// Trace is the full event log of the violating execution.
	Trace *trace.Log
	// Inputs are the process inputs of the execution.
	Inputs []int64
}

func (c *Counterexample) String() string {
	return fmt.Sprintf("counterexample (%d steps): %s\nschedule: %v\ntrace:\n%s",
		len(c.Schedule), c.Verdict.String(), c.Schedule, c.Trace)
}

// Outcome summarizes an exploration.
type Outcome struct {
	// Executions is the number of complete executions enumerated.
	Executions int
	// Complete reports that the entire execution tree was enumerated
	// (no violation found and the cap was not hit).
	Complete bool
	// Violation is the first violating execution found, or nil.
	Violation *Counterexample
	// MaxProcSteps is the largest per-process step count observed.
	MaxProcSteps int
	// MaxFaults is the largest total fault count observed in a run.
	MaxFaults int
	// Workers is the number of parallel workers used (1 for the
	// sequential checker).
	Workers int
	// Elapsed is the wall-clock duration of the exploration (engine runs
	// only; zero for the sequential checker).
	Elapsed time.Duration
	// ViolationLatency is the wall-clock time until the first violating
	// execution was replayed (engine runs only; zero if none was found).
	ViolationLatency time.Duration
	// Donations is the number of subtree tasks workers carved off and
	// pushed to the frontier for others to claim (engine runs only).
	Donations int64
	// Steals is the number of tasks claimed from the shared frontier
	// (engine runs only).
	Steals int64
	// Dedup holds the state-cache counters of a deduplicated engine run
	// (nil when deduplication was off).
	Dedup *dedup.Stats
	// ReducePrunes is the number of sleep-blocked subtrees the partial-order
	// reducer cut (engine runs only; zero with reduction off).
	ReducePrunes int64
}

// OK reports that no violation was found.
func (o *Outcome) OK() bool { return o.Violation == nil }

// chooser drives one replayed execution along a fixed decision prefix,
// extending it with first-branch (0) decisions and recording each branch
// point's arity for backtracking. Callers set path (and lb) between
// replays; arity and taken are the replay's record and only it writes them.
type chooser struct {
	path  []int
	arity []int
	// taken is the choice sequence the most recent replay consumed: the
	// replay compares it with the next path to find where to resume.
	taken []int
	pos   int
	// lb is the backtracking floor: next never retracts a choice at a
	// position below lb. The sequential checker uses lb = 0 (the whole
	// tree); an engine worker owns the subtree rooted at its prefix and
	// sets lb = len(prefix).
	lb int
}

func (c *chooser) choose(n int) int {
	if n < 1 {
		panic("explore: choose with no alternatives")
	}
	if c.pos == len(c.path) {
		c.path = append(c.path, 0)
	}
	pick := c.path[c.pos]
	if pick >= n {
		// The prefix came from a previous run whose tree shape matched
		// up to here; a deterministic system never shrinks an arity on
		// the same prefix.
		panic(fmt.Sprintf("explore: stale choice %d of %d at position %d", pick, n, c.pos))
	}
	c.arity = append(c.arity, n)
	c.taken = append(c.taken[:c.pos], pick)
	c.pos++
	return pick
}

// next advances the path depth-first: it truncates to the deepest branch
// point with an untaken alternative and increments it. It returns false when
// the subtree above the backtracking floor is exhausted.
func (c *chooser) next() bool {
	i := len(c.path) - 1
	for i >= c.lb && c.path[i]+1 >= c.arity[i] {
		i--
	}
	if i < c.lb {
		return false
	}
	c.path = c.path[:i+1]
	c.path[i]++
	return true
}

// donate carves off every untaken alternative at the shallowest branch point
// at or above the backtracking floor and returns them as ONE subtree task
// (path = the next untaken alternative, floor = the branch position, so the
// recipient's own backtracking enumerates the remaining alternatives),
// excluding them from this chooser's enumeration. It returns ok=false when
// the remaining subtree has no branch point to split. This is the
// work-sharing primitive of the parallel engine, applied shallowest-first so
// a donation is the largest subtree the worker can give away; consolidating
// the alternatives into one task (rather than one task per alternative)
// keeps donated subtrees big enough to amortize the recipient's cap lease
// and publish cadence.
//
// donate must be called right after a replay, while the recorded arities
// describe the current path. Because d is the shallowest branch point with
// untaken alternatives, every position above it is exhausted for good (the
// tree is deterministic), so raising the floor past d excludes exactly the
// donated subtree from this worker's future backtracking.
func (c *chooser) donate() (path []int, floor int, ok bool) {
	for d := c.lb; d < len(c.arity) && d < len(c.path); d++ {
		if c.path[d]+1 >= c.arity[d] {
			continue
		}
		p := make([]int, d+1)
		copy(p, c.path[:d])
		p[d] = c.path[d] + 1
		c.lb = d + 1
		return p, d, true
	}
	return nil, 0, false
}

// observable reports whether injecting the fault kind on this invocation
// would violate the CAS postconditions Φ (Definition 1); unobservable
// injections are not faults and would only bloat the tree.
func observable(kind fault.Kind, op fault.Op) bool {
	switch kind {
	case fault.Overriding:
		return op.Current != op.Exp && op.New != op.Current
	case fault.Silent:
		return op.Current == op.Exp && op.New != op.Current
	default:
		return false
	}
}

// prepare validates the configuration and resolves the effective fault
// kind and execution cap — shared by the sequential checker and the
// parallel engine. The protocol must provide its compiled form: every
// replay runs it.
func (cfg *Config) prepare() (kind fault.Kind, cap int, err error) {
	if cfg.Protocol == nil {
		return 0, 0, fmt.Errorf("explore: no protocol")
	}
	if len(cfg.Inputs) == 0 {
		return 0, 0, fmt.Errorf("explore: no inputs")
	}
	if err := run.RequireSteppable(cfg.Protocol); err != nil {
		return 0, 0, err
	}
	kind = cfg.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	if cfg.FixedPolicy == nil && kind != fault.Overriding && kind != fault.Silent {
		return 0, 0, fmt.Errorf("explore: unsupported fault kind %v", kind)
	}
	if cfg.Reduce != run.ReduceOff {
		if cfg.FixedPolicy != nil {
			// The reducer's independence relation reasons about the
			// checker's own fault branches (observable ∧ admitted); an
			// opaque policy could fire faults the purity predicate does
			// not see.
			return 0, 0, fmt.Errorf("explore: partial-order reduction requires the checker's own fault policy, not FixedPolicy")
		}
		if len(cfg.Inputs) > 64 {
			// The reducer's sleep and persistent sets are process bitmasks.
			return 0, 0, fmt.Errorf("explore: partial-order reduction supports at most 64 processes, got %d", len(cfg.Inputs))
		}
	}
	cap = cfg.MaxExecutions
	if cap <= 0 {
		cap = DefaultMaxExecutions
	}
	return kind, cap, nil
}

// ConfigFrom converts the unified settings to an exploration Config.
func ConfigFrom(s *run.Settings) Config {
	return Config{
		Protocol:        s.Protocol,
		Inputs:          s.Inputs,
		FaultyObjects:   s.FaultyObjects,
		FaultsPerObject: s.FaultsPerObject,
		Kind:            s.Kind,
		FixedPolicy:     s.Policy,
		MaxExecutions:   s.MaxExecutions,
		StepLimit:       s.StepLimit,
		Reduce:          s.Reduce,
	}
}

// CheckWith explores the execution space described by the unified run.With...
// options — the one way executions are constructed across the packages. The
// exploration runs on the parallel engine with the configured worker count
// (run.WithWorkers; default GOMAXPROCS) and honors ctx cancellation.
//
// run.WithCheckpoint creates a run store and checkpoints into it;
// run.WithResume opens an existing run store, refuses mismatched settings
// (store.ErrMismatch), and continues the stored exploration. run.WithDedup
// turns on state deduplication. run.WithTraceDir captures durable execution
// traces (the tracer is created and sealed inside this call).
func CheckWith(ctx context.Context, opts ...run.Option) (*Outcome, error) {
	s := run.NewSettings(opts...)
	eng := &Engine{
		Workers:         s.Workers,
		Dedup:           s.Dedup,
		CheckpointEvery: s.CheckpointEvery,
		Metrics:         s.Metrics,
		Events:          s.Events,
	}
	cfg := ConfigFrom(s)
	switch {
	case s.LedgerDir != "":
		if s.Resume != "" || s.CheckpointDir != "" {
			return nil, fmt.Errorf("explore: the work ledger is the durable state of a distributed run; it cannot be combined with checkpointing or resume")
		}
		l, err := JoinLedger(cfg, s, eng.Exhaustive, eng.Dedup)
		if err != nil {
			return nil, err
		}
		eng.Ledger = l
	case s.Resume != "":
		st, err := store.Open(s.Resume)
		if err != nil {
			return nil, err
		}
		m, err := ManifestFor(cfg, eng.Exhaustive, eng.Dedup)
		if err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Verify(m); err != nil {
			st.Close()
			return nil, err
		}
		eng.Store = st
	case s.CheckpointDir != "":
		m, err := ManifestFor(cfg, eng.Exhaustive, eng.Dedup)
		if err != nil {
			return nil, err
		}
		st, err := store.Create(s.CheckpointDir, m)
		if err != nil {
			return nil, err
		}
		eng.Store = st
	}
	if s.TraceDir != "" {
		tr, err := NewTracerFor(s)
		if err != nil {
			if eng.Store != nil {
				eng.Store.Close()
			}
			return nil, err
		}
		eng.Tracer = tr
	}
	out, err := eng.Check(ctx, cfg)
	if cerr := eng.Tracer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if eng.Store != nil {
		// Release the run-directory owner lock so a later process (or a
		// resume) is not refused while this one lingers.
		if cerr := eng.Store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return out, err
}

// WorkerIDFor returns the effective ledger participant id for the settings:
// the configured WorkerID, or the canonical "host:pid" default.
func WorkerIDFor(s *run.Settings) string {
	if s.WorkerID != "" {
		return s.WorkerID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// JoinLedger joins (or creates) the work ledger in s.LedgerDir and binds the
// run directory to these settings: the first participant commits a manifest
// carrying the ledger epoch; every later participant must present identical
// settings and is refused (store.ErrMismatch) otherwise — two processes
// silently sweeping different execution spaces into one ledger would merge
// to garbage.
func JoinLedger(cfg Config, s *run.Settings, exhaustive, dedup bool) (*ledger.Ledger, error) {
	l, _, err := ledger.Join(s.LedgerDir, WorkerIDFor(s), s.LeaseTTL)
	if err != nil {
		return nil, err
	}
	m, err := ManifestFor(cfg, exhaustive, dedup)
	if err != nil {
		return nil, err
	}
	m.LedgerEpoch = l.Epoch()
	st, err := store.CreateShared(s.LedgerDir, m)
	if errors.Is(err, fs.ErrExist) {
		if st, err = store.OpenShared(s.LedgerDir); err != nil {
			return nil, err
		}
		if verr := st.Verify(m); verr != nil {
			st.Close()
			return nil, verr
		}
	} else if err != nil {
		return nil, err
	}
	st.Close()
	return l, nil
}

// Check exhaustively explores the execution tree and returns the outcome.
// It is the sequential reference implementation: the parallel Engine
// enumerates the same leaves and is checked against it.
func Check(cfg Config) (*Outcome, error) {
	kind, cap, err := cfg.prepare()
	if err != nil {
		return nil, err
	}

	out := &Outcome{Workers: 1}
	c := &chooser{}
	es := newExecState(cfg, kind, c, nil)
	for out.Executions < cap {
		verdict, stats, pruned, err := es.runLeaf(context.Background())
		if err != nil {
			return nil, err
		}
		if pruned {
			// Sleep-blocked node (reduction): the whole subtree below the
			// pruned prefix is covered below an earlier sibling. Backtrack
			// past it without counting an execution.
			if es.prunedAt <= c.lb {
				out.Complete = true
				return out, nil
			}
			c.path = c.path[:es.prunedAt]
			if !c.next() {
				out.Complete = true
				return out, nil
			}
			continue
		}
		out.Executions++
		if stats.maxSteps > out.MaxProcSteps {
			out.MaxProcSteps = stats.maxSteps
		}
		if stats.faults > out.MaxFaults {
			out.MaxFaults = stats.faults
		}
		if !verdict.OK() {
			out.Violation = es.counterexample(verdict)
			return out, nil
		}
		if !c.next() {
			out.Complete = true
			return out, nil
		}
	}
	return out, nil
}

type runStats struct {
	maxSteps int
	faults   int
}

// execState is the reusable replay machinery of one enumeration loop (one
// sequential Check, or one engine worker): the fault budget, the object
// bank, the protocol's step machines on the stepped runner, the trace log,
// the schedule buffer, the verdict evaluator, and the frame stack. All of
// it is allocated once and reused per leaf, so replays allocate nothing on
// their hot path.
//
// Replays are incremental. Every scheduling decision pushes a frame: the
// flat machine state at that step boundary. The next replay resumes from
// the deepest frame whose choices are a prefix of its path, so a leaf costs
// the steps of its new suffix, not of its whole path, and a pruned leaf
// backtracks without re-descending from the root.
type execState struct {
	cfg Config
	c   *chooser
	dh  *dedupHandle // nil without dedup
	red *reducer     // nil without partial-order reduction

	// tracker is the single canonical-state observer of the replay,
	// present whenever dedup or reduction is on (shared by both).
	tracker *dedup.Tracker
	// prunedAt records where the current replay halted early (-1 if it ran
	// to its end): the dedup set claimed the state for a smaller path, or
	// the reducer found the node sleep-blocked (pruneSleep tells which).
	prunedAt   int
	pruneSleep bool

	budget   *fault.Budget
	bank     *object.Bank
	log      *trace.Log
	schedule []int
	eval     *run.Evaluator

	prog       *run.SteppedExec
	stepped    *sim.Stepped
	steppedCfg sim.SteppedConfig

	// frames holds one frame per scheduling decision of the most recent
	// replay, along the choices in c.taken. Slots past the length keep
	// their storage for reuse.
	frames []frame
	// resuming is set while a replay restored from a frame has not yet
	// reached that frame's decision again.
	resuming bool
}

// frame is the flat machine state at one scheduling decision, taken after
// the decision's sleep-set fold and dedup probe and before its choice.
// Everything in it is a function of the choices consumed before the
// decision (c.taken[:pos]), so any replay whose path starts with those
// choices can continue from it.
type frame struct {
	pos      int // choices consumed before the decision
	logLen   int
	schedLen int
	sleep    uint64 // the reducer's sleep set
	sim      sim.SteppedState
	states   []core.State
	bank     object.BankState
	budget   fault.BudgetState
	tracker  dedup.TrackerState
}

// newExecState builds the replay machinery for one enumeration loop driven
// by the given chooser. cfg must have passed Config.prepare, which
// guarantees the protocol's compiled form exists.
func newExecState(cfg Config, kind fault.Kind, c *chooser, dh *dedupHandle) *execState {
	es := &execState{cfg: cfg, c: c, dh: dh}
	es.budget = fault.NewFixedBudget(cfg.FaultyObjects, cfg.FaultsPerObject)
	policy := cfg.FixedPolicy
	if policy == nil {
		policy = choicePolicy(es.budget, kind, c)
	}
	es.bank = object.NewBank(cfg.Protocol.Objects(), es.budget, policy)
	es.log = trace.New()
	es.eval = run.NewEvaluator(cfg.Inputs)

	limit := cfg.StepLimit
	if limit <= 0 {
		limit = cfg.Protocol.StepBound(len(cfg.Inputs))
	}
	if dh != nil {
		es.tracker = dh.tracker
	}
	if cfg.Reduce != run.ReduceOff {
		if es.tracker == nil {
			es.tracker = dedup.NewTracker(cfg.Protocol.Objects(), cfg.Inputs, true)
		}
		es.red = newReducer(cfg.Reduce, kind, len(cfg.Inputs), es.tracker, es.budget)
	}
	var observer func(trace.Event)
	if es.tracker != nil {
		observer = es.tracker.Observe
	}
	stepper, _ := core.Compile(cfg.Protocol)
	es.prog = run.NewSteppedExec(stepper, es.bank, cfg.Inputs)
	if es.red != nil {
		es.red.pendingOf = es.prog.Pending
		es.red.footprintOf = es.prog.Footprint
	}
	es.stepped = sim.NewStepped(len(cfg.Inputs))
	es.steppedCfg = sim.SteppedConfig{
		Procs:     len(cfg.Inputs),
		Program:   es.prog,
		Scheduler: sim.SchedulerFunc(es.schedNext),
		StepLimit: limit,
		Log:       es.log,
		Observer:  observer,
	}
	return es
}

// choicePolicy is the checker's own fault policy: every observable CAS on
// an object the budget still admits is a binary branch point of the
// chooser (1 = inject the fault).
func choicePolicy(budget *fault.Budget, kind fault.Kind, c *chooser) fault.Policy {
	return fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if !budget.Admits(op.Object) || !observable(kind, op) {
			return fault.NoFault
		}
		if c.choose(2) == 1 {
			return fault.Proposal{Kind: kind}
		}
		return fault.NoFault
	})
}

// schedNext is the replay scheduler: it folds the previous step into the
// reducer (when on), consults the dedup set (when on) before consuming each
// scheduling decision, pushes the decision's frame, then follows the choice
// path through the branch alternatives this node exposes — the enabled set,
// or the reducer's filtered candidate set.
func (es *execState) schedNext(enabled []int) (int, bool) {
	c := es.c
	if es.resuming {
		// This decision's frame was restored: its fold and probe already
		// ran, and the frame is still on the stack.
		es.resuming = false
	} else {
		if es.red != nil {
			es.red.advance()
		}
		if es.dh != nil {
			fp := es.tracker.Fingerprint()
			if es.red != nil {
				// Same state, different sleep set ⇒ different explored
				// successors; only identical pairs may merge.
				fp = es.red.salt(fp)
			}
			if es.dh.set.Visit(fp, c.path[:c.pos]) == dedup.Prune {
				es.prunedAt = c.pos
				es.pruneSleep = false
				return 0, false
			}
		}
		es.push()
	}
	if es.red == nil {
		pick := enabled[0]
		if len(enabled) > 1 {
			pick = enabled[c.choose(len(enabled))]
		}
		es.schedule = append(es.schedule, pick)
		return pick, true
	}
	cand := es.red.candidates(enabled)
	if len(cand) == 0 {
		// Sleep-blocked: every continuation from this node is covered
		// below an earlier sibling.
		es.prunedAt = c.pos
		es.pruneSleep = true
		return 0, false
	}
	idx := 0
	if len(cand) > 1 {
		idx = c.choose(len(cand))
	}
	pick := cand[idx]
	es.red.chose(cand, idx)
	es.schedule = append(es.schedule, pick)
	return pick, true
}

// push saves the machine state at the current scheduling decision as a new
// top frame.
func (es *execState) push() {
	n := len(es.frames)
	if n < cap(es.frames) {
		es.frames = es.frames[:n+1]
	} else {
		es.frames = append(es.frames, frame{})
	}
	f := &es.frames[n]
	f.pos = es.c.pos
	f.logLen = es.log.Len()
	f.schedLen = len(es.schedule)
	es.stepped.Save(&f.sim)
	f.states = append(f.states[:0], es.prog.States()...)
	es.bank.Save(&f.bank)
	es.budget.Save(&f.budget)
	if es.tracker != nil {
		es.tracker.Save(&f.tracker)
	}
	if es.red != nil {
		f.sleep = es.red.sleep
	}
}

// resumeFrame returns the deepest frame the next replay may resume from,
// or -1 when it must start at the root: a frame is valid when the choices
// consumed before it are a prefix of the chooser's path. Frames are pushed
// with non-decreasing pos, so the scan stops at the first valid one.
func (es *execState) resumeFrame() int {
	c := es.c
	lcp := 0
	for lcp < len(c.taken) && lcp < len(c.path) && c.taken[lcp] == c.path[lcp] {
		lcp++
	}
	k := len(es.frames) - 1
	for k >= 0 && es.frames[k].pos > lcp {
		k--
	}
	return k
}

// restore rewinds every part of the machine to frame k, drops the frames
// above it, and arms resuming so the frame's decision is taken afresh.
func (es *execState) restore(k int) {
	f := &es.frames[k]
	es.frames = es.frames[:k+1]
	c := es.c
	c.pos = f.pos
	c.arity = c.arity[:f.pos]
	c.taken = c.taken[:f.pos]
	es.log.Truncate(f.logLen)
	es.schedule = es.schedule[:f.schedLen]
	es.stepped.Restore(&f.sim)
	copy(es.prog.States(), f.states)
	es.bank.Restore(&f.bank)
	es.budget.Restore(&f.budget)
	if es.tracker != nil {
		es.tracker.Restore(&f.tracker)
	}
	if es.red != nil {
		es.red.reset()
		es.red.sleep = f.sleep
	}
	es.resuming = true
}

// reset returns the machine to the root: no frames, no choices consumed.
func (es *execState) reset() {
	c := es.c
	c.pos = 0
	c.arity = c.arity[:0]
	c.taken = c.taken[:0]
	es.frames = es.frames[:0]
	es.budget.Reset()
	es.bank.Reset()
	es.log.Reset()
	es.schedule = es.schedule[:0]
	if es.tracker != nil {
		es.tracker.Reset()
	}
	if es.red != nil {
		es.red.reset()
	}
	es.resuming = false
}

// runLeaf runs one execution along the chooser's path, resuming from the
// deepest frame the path shares with the previous replay (from the root
// when there is none). When dedup or reduction is on and the replay
// reaches a state already claimed by a lexicographically smaller path (or a
// sleep-blocked node), it halts early and reports pruned=true (es.prunedAt
// records where, es.pruneSleep which mechanism); the replay is then neither
// evaluated nor counted — any violation visible in the halted prefix also
// appears below a smaller path.
//
// Resuming skips the dedup probes of the decisions above the frame. With
// one worker each of them would return Revisit, so the leaf sequence is
// the same as a replay from the root; with several workers a prefix state
// re-claimed by another worker in the meantime is not re-probed, which can
// only add leaves (see docs/MODEL.md, "Resume from frames").
//
// The returned verdict borrows slices owned by the stepped runner and the
// execState; callers retaining a leaf (violations, trace samples) must go
// through counterexample, which clones everything.
func (es *execState) runLeaf(ctx context.Context) (run.Verdict, runStats, bool, error) {
	es.prunedAt = -1
	var res *sim.Result
	var err error
	if k := es.resumeFrame(); k >= 0 {
		es.restore(k)
		res, err = es.stepped.Resume(ctx, es.steppedCfg)
	} else {
		es.reset()
		res, err = es.stepped.Run(ctx, es.steppedCfg)
	}
	if err != nil && res == nil {
		return run.Verdict{}, runStats{}, false, err
	}
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		// Cancellation (or any future partial-result condition): the
		// truncated execution must not be evaluated as if it completed.
		return run.Verdict{}, runStats{}, false, err
	}
	if es.prunedAt >= 0 {
		if es.cfg.onLeaf != nil {
			es.cfg.onLeaf(es, run.Verdict{}, true)
		}
		return run.Verdict{}, runStats{}, true, nil
	}

	verdict := es.eval.Evaluate(res, err)
	if es.cfg.onLeaf != nil {
		es.cfg.onLeaf(es, verdict, false)
	}
	return verdict, statsOf(res, es.budget), false, nil
}

// statsOf tallies one finished execution: its largest per-process step
// count and the faults it consumed.
func statsOf(res *sim.Result, budget *fault.Budget) runStats {
	stats := runStats{faults: budget.TotalFaults()}
	for _, s := range res.Steps {
		if s > stats.maxSteps {
			stats.maxSteps = s
		}
	}
	return stats
}

// counterexample snapshots the most recent runLeaf as a self-contained
// Counterexample: the path, schedule, trace, and verdict slices are cloned,
// so the record stays valid while the execState keeps replaying.
func (es *execState) counterexample(verdict run.Verdict) *Counterexample {
	verdict.Decisions = append([]word.Word(nil), verdict.Decisions...)
	verdict.Decided = append([]bool(nil), verdict.Decided...)
	return &Counterexample{
		Path:     append([]int(nil), es.c.path...),
		Schedule: append([]int(nil), es.schedule...),
		Verdict:  verdict,
		Trace:    es.log.Clone(),
		Inputs:   es.cfg.Inputs,
	}
}
