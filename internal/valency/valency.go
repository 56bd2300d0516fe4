// Package valency operationalizes the proof technique of Section 5 of the
// paper (inherited from Herlihy's impossibility arguments and FLP): the
// *valence* of a system state is the set of decision values still reachable
// in some extension of the execution.
//
// A state is multivalent when at least two decision values remain possible,
// univalent (x-valent) when only one does, and a step out of a multivalent
// state into a univalent one is a decision step. The impossibility proofs
// construct a critical state — a multivalent state whose every enabled step
// is a decision step — and derive a contradiction from indistinguishability
// of its successors. This package computes those objects *exactly*, by
// exhaustive enumeration over the deterministic simulator's choice tree, so
// the proof's skeleton can be exhibited (and tested) on concrete protocols.
//
// States are identified by choice-path prefixes: the sequence of
// scheduler/fault decisions that leads to the state from the initial one
// (the same representation the model checker in internal/explore uses).
package valency

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
)

// Config describes the system whose state space is analyzed. It mirrors
// explore.Config (scheduling choices plus optional overriding-fault
// choices on a fixed faulty-object set).
type Config struct {
	Protocol        core.Protocol
	Inputs          []int64
	FaultyObjects   []int
	FaultsPerObject int
	// MaxExecutions caps each subtree enumeration. 0 means the explore
	// default; valence results are only exact when the enumeration
	// completes, and Valence reports an error otherwise.
	MaxExecutions int

	// soloProc, when positive, restricts scheduling beyond the prefix to
	// process soloProc−1 (solo extensions; see SoloValence).
	soloProc int
}

// Valence is the analysis result for one state (choice-path prefix).
type Valence struct {
	// Prefix identifies the state.
	Prefix []int
	// Values are the decision values reachable in extensions of the
	// state, ascending. With a correct protocol every execution is
	// consistent and Values is the classical valence; if any extension
	// violates consistency, Violated is set and Values collects every
	// decided value observed.
	Values []int64
	// Violated reports that some extension violates a consensus
	// requirement (the protocol is incorrect in this configuration).
	Violated bool
	// Executions is the number of complete extensions enumerated.
	Executions int
}

// Multivalent reports whether at least two decision values remain possible.
func (v Valence) Multivalent() bool { return len(v.Values) >= 2 }

// Univalent reports whether exactly one decision value remains possible.
func (v Valence) Univalent() bool { return len(v.Values) == 1 }

// String renders the valence compactly.
func (v Valence) String() string {
	kind := "multivalent"
	if v.Univalent() {
		kind = fmt.Sprintf("%d-valent", v.Values[0])
	}
	if v.Violated {
		kind += " (violations reachable)"
	}
	return fmt.Sprintf("state %v: %s, values %v over %d executions", v.Prefix, kind, v.Values, v.Executions)
}

// Compute determines the valence of the state identified by prefix by
// enumerating every extension. It returns an error if the enumeration
// cannot be completed within the cap (the result would not be exact).
func Compute(cfg Config, prefix []int) (Valence, error) {
	res := Valence{Prefix: append([]int(nil), prefix...)}
	seen := map[int64]bool{}

	err := enumerate(cfg, prefix, func(verdict run.Verdict) {
		res.Executions++
		if !verdict.OK() {
			res.Violated = true
		}
		for i, ok := range verdict.Decided {
			if ok && !verdict.Decisions[i].IsBottom() {
				seen[verdict.Decisions[i].Value()] = true
			}
		}
	})
	if err != nil {
		return Valence{}, err
	}
	for v := range seen {
		res.Values = append(res.Values, v)
	}
	sort.Slice(res.Values, func(i, j int) bool { return res.Values[i] < res.Values[j] })
	return res, nil
}

// ChildArity returns the number of alternatives at the state's frontier
// choice — i.e. how many distinct next steps the adversary can take from
// this state. Zero means the execution completes without consuming another
// choice (the state is terminal for scheduling purposes).
func ChildArity(cfg Config, prefix []int) (int, error) {
	arity := 0
	probe := append(append([]int(nil), prefix...), 0)
	c := newChooser(probe)
	if err := runPath(cfg, c); err != nil {
		return 0, err
	}
	if len(c.arity) > len(prefix) {
		arity = c.arity[len(prefix)]
	}
	return arity, nil
}

// Critical is a multivalent state whose every enabled step leads to a
// univalent state — the object the impossibility proofs construct.
type Critical struct {
	// Prefix identifies the critical state.
	Prefix []int
	// State is the critical state's own valence.
	State Valence
	// Children holds the valence of each successor, indexed by choice.
	Children []Valence
}

// FindCritical walks the choice tree from the initial state, always
// stepping into a multivalent child, until it reaches a state whose
// children are all univalent. For a correct wait-free protocol with at
// least two distinct inputs such a state must exist (the walk strictly
// descends a finite tree and the initial state is multivalent by validity).
func FindCritical(cfg Config) (*Critical, error) {
	prefix := []int{}
	state, err := Compute(cfg, prefix)
	if err != nil {
		return nil, err
	}
	if !state.Multivalent() {
		return nil, fmt.Errorf("valency: initial state is %s; need ≥2 distinct inputs", state)
	}

	for {
		arity, err := ChildArity(cfg, prefix)
		if err != nil {
			return nil, err
		}
		if arity == 0 {
			return nil, fmt.Errorf("valency: multivalent state %v has no successors", prefix)
		}
		children := make([]Valence, arity)
		nextChild := -1
		for c := 0; c < arity; c++ {
			child, err := Compute(cfg, append(append([]int(nil), prefix...), c))
			if err != nil {
				return nil, err
			}
			children[c] = child
			if child.Multivalent() && nextChild == -1 {
				nextChild = c
			}
		}
		if nextChild == -1 {
			return &Critical{Prefix: prefix, State: state, Children: children}, nil
		}
		prefix = append(prefix, nextChild)
		state = children[nextChild]
	}
}

// enumerate runs every extension of the prefix, invoking visit with each
// execution's verdict. It fails if the subtree exceeds the execution cap.
func enumerate(cfg Config, prefix []int, visit func(run.Verdict)) error {
	cap := cfg.MaxExecutions
	if cap <= 0 {
		cap = explore.DefaultMaxExecutions
	}
	c := newChooser(prefix)
	floor := len(prefix)
	for execs := 0; execs < cap; execs++ {
		c.arity = c.arity[:0]
		c.pos = 0
		verdict, err := runPathVerdict(cfg, c, floor)
		if err != nil {
			return err
		}
		visit(verdict)
		if !c.next(floor) {
			return nil
		}
	}
	return fmt.Errorf("valency: subtree at %v exceeds %d executions", prefix, cap)
}

// chooser mirrors explore's replay chooser, with a floor below which the
// odometer never backtracks (the prefix is pinned).
type chooser struct {
	path  []int
	arity []int
	pos   int
}

func newChooser(prefix []int) *chooser {
	return &chooser{path: append([]int(nil), prefix...)}
}

func (c *chooser) choose(n int) int {
	if c.pos == len(c.path) {
		c.path = append(c.path, 0)
	}
	pick := c.path[c.pos]
	if pick >= n {
		panic(fmt.Sprintf("valency: stale choice %d of %d at %d", pick, n, c.pos))
	}
	c.arity = append(c.arity, n)
	c.pos++
	return pick
}

func (c *chooser) next(floor int) bool {
	i := len(c.path) - 1
	for i >= floor && (i >= len(c.arity) || c.path[i]+1 >= c.arity[i]) {
		i--
	}
	if i < floor {
		return false
	}
	c.path = c.path[:i+1]
	c.path[i]++
	return true
}

func runPath(cfg Config, c *chooser) error {
	_, err := runPathVerdict(cfg, c, len(c.path))
	return err
}

func runPathVerdict(cfg Config, c *chooser, soloAfter int) (run.Verdict, error) {
	budget := fault.NewFixedBudget(cfg.FaultyObjects, cfg.FaultsPerObject)
	policy := fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if !budget.Admits(op.Object) || op.Current == op.Exp || op.New == op.Current {
			return fault.NoFault
		}
		if c.choose(2) == 1 {
			return fault.Proposal{Kind: fault.Overriding}
		}
		return fault.NoFault
	})
	bank := object.NewBank(cfg.Protocol.Objects(), budget, policy)
	sched := sim.SchedulerFunc(func(enabled []int) (int, bool) {
		if cfg.soloProc > 0 && c.pos >= soloAfter {
			// Solo extension: only the designated process steps.
			want := cfg.soloProc - 1
			for _, id := range enabled {
				if id == want {
					return id, true
				}
			}
			return 0, false // the solo process has finished
		}
		if len(enabled) == 1 {
			return enabled[0], true
		}
		return enabled[c.choose(len(enabled))], true
	})
	res, err := run.Simulate(context.Background(), cfg.Protocol, bank, cfg.Inputs,
		sim.SteppedConfig{Scheduler: sched})
	if err != nil && res == nil {
		return run.Verdict{}, err
	}
	return run.Evaluate(cfg.Inputs, res, err), nil
}
