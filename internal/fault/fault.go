// Package fault implements the functional-fault model of Section 3 of the
// paper: fault kinds for the CAS operation (Section 3.3–3.4), the (f, t, n)
// tolerance budget of Definition 3, and pluggable fault policies that decide,
// per operation invocation, whether a fault fires.
//
// A policy *proposes* a fault; the Budget *admits* it. Only admitted faults
// that actually deviate from the CAS postconditions Φ are charged against the
// budget, matching Definition 1 (a fault "occurs" only when Φ is violated).
package fault

import "fmt"

// Kind enumerates the CAS functional faults discussed in the paper.
type Kind int

const (
	// None means the operation follows its sequential specification Φ.
	None Kind = iota

	// Overriding is the paper's case-study fault (Section 3.3): the new
	// value is written even when the register content differs from the
	// expected value. The returned old value is still correct, so the
	// relaxed postcondition Φ′ is  R = val ∧ old = R′.
	Overriding

	// Silent (Section 3.4): the new value is not written even though the
	// register content equals the expected value. The returned old value
	// is still correct (it equals the expected value).
	Silent

	// Invisible (Section 3.4): the returned old value is incorrect. The
	// write behaviour itself follows the specification. Reducible to a
	// data fault in the model of Afek et al.
	Invisible

	// Arbitrary (Section 3.4): an arbitrary value is written to the
	// register regardless of the operation's input. Comparable to the
	// responsive arbitrary data fault of Jayanti et al.
	Arbitrary

	// Nonresponsive (Section 3.4): the operation never returns. Proven
	// insurmountable for consensus; modeled so the liveness failure can be
	// demonstrated, never tolerated.
	Nonresponsive
)

// String returns the paper's name for the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Overriding:
		return "overriding"
	case Silent:
		return "silent"
	case Invisible:
		return "invisible"
	case Arbitrary:
		return "arbitrary"
	case Nonresponsive:
		return "nonresponsive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unbounded marks an unlimited number of faults per faulty object (t = ∞ in
// Definition 3).
const Unbounded = -1

// Budget enforces Definition 3: at most f faulty objects in the execution and
// at most t functional faults per faulty object. The faulty-object set may be
// fixed up front (the usual adversarial setting, where the adversary commits
// to which objects are faulty) or discovered lazily (first f distinct objects
// that fault become the faulty set).
//
// The charges are a flat slice indexed by object id, with a running total,
// so TotalFaults is O(1) and the model checker can save and restore a
// budget (Save, Restore) with one slice copy.
//
// Budget is not safe for concurrent use; the simulator serializes all steps.
// The atomicx backend wraps it in a mutex.
type Budget struct {
	f int // max faulty objects
	t int // max faults per faulty object, or Unbounded

	// charges[id] is the number of faults charged to object id, or
	// notFaulty when the object is outside the faulty set. Ids beyond the
	// slice are outside it too.
	charges []int
	members int  // objects in the faulty set
	total   int  // sum of the members' charges
	fixed   bool // faulty set fixed up front
}

// notFaulty marks an object outside the faulty set in Budget.charges.
const notFaulty = -1

// NewBudget returns a budget admitting at most maxFaultyObjects faulty
// objects with at most faultsPerObject faults each (Unbounded for t = ∞).
// The faulty-object set is discovered lazily.
func NewBudget(maxFaultyObjects, faultsPerObject int) *Budget {
	if maxFaultyObjects < 0 {
		panic("fault: negative faulty-object bound")
	}
	if faultsPerObject < 0 && faultsPerObject != Unbounded {
		panic("fault: negative per-object fault bound")
	}
	return &Budget{f: maxFaultyObjects, t: faultsPerObject}
}

// NewFixedBudget returns a budget whose faulty-object set is exactly the
// given object ids (|set| counts toward f = len(objects)). Objects outside
// the set never fault regardless of policy proposals.
func NewFixedBudget(objects []int, faultsPerObject int) *Budget {
	b := NewBudget(len(objects), faultsPerObject)
	b.fixed = true
	for _, id := range objects {
		b.join(id)
	}
	return b
}

// join adds the object to the faulty set with no charges.
func (b *Budget) join(object int) {
	if object < 0 {
		panic(fmt.Sprintf("fault: negative object id %d", object))
	}
	for len(b.charges) <= object {
		b.charges = append(b.charges, notFaulty)
	}
	if b.charges[object] == notFaulty {
		b.charges[object] = 0
		b.members++
	}
}

// used returns the object's charges, or notFaulty outside the faulty set.
func (b *Budget) used(object int) int {
	if object < 0 || object >= len(b.charges) {
		return notFaulty
	}
	return b.charges[object]
}

// Admits reports whether one more fault on the given object would stay
// within the budget. It does not charge the budget.
func (b *Budget) Admits(object int) bool {
	used := b.used(object)
	if used == notFaulty {
		if b.fixed || object < 0 {
			return false // outside the fixed faulty set, or not an object id
		}
		if b.members >= b.f {
			return false // would exceed f faulty objects
		}
		used = 0
	}
	return b.t == Unbounded || used < b.t
}

// Charge records one fault against the object. It panics if the fault is not
// admitted: callers must check Admits first, and a violation indicates a
// framework bug rather than a recoverable condition.
func (b *Budget) Charge(object int) {
	if !b.Admits(object) {
		panic(fmt.Sprintf("fault: budget violated charging object %d", object))
	}
	b.join(object)
	b.charges[object]++
	b.total++
}

// FaultyObjects returns the ids of objects that are designated faulty (fixed
// set) or have faulted at least once (lazy set), in ascending order.
func (b *Budget) FaultyObjects() []int {
	ids := make([]int, 0, b.members)
	for id, n := range b.charges {
		if n != notFaulty {
			ids = append(ids, id)
		}
	}
	return ids
}

// Faults returns the number of faults charged to the object so far.
func (b *Budget) Faults(object int) int { return max(b.used(object), 0) }

// TotalFaults returns the number of faults charged across all objects.
func (b *Budget) TotalFaults() int { return b.total }

// MaxFaultyObjects returns the f parameter.
func (b *Budget) MaxFaultyObjects() int { return b.f }

// FaultsPerObject returns the t parameter (Unbounded for t = ∞).
func (b *Budget) FaultsPerObject() int { return b.t }

// Reset discharges all recorded faults, returning the budget to its pristine
// state: a fixed faulty set keeps its members at zero charges, a lazy set
// forgets the discovered objects. Replay loops reuse one budget this way
// instead of cloning per execution.
func (b *Budget) Reset() {
	for id, n := range b.charges {
		switch {
		case n == notFaulty:
		case b.fixed:
			b.charges[id] = 0
		default:
			b.charges[id] = notFaulty
		}
	}
	if !b.fixed {
		b.members = 0
	}
	b.total = 0
}

// Clone returns an independent copy of the budget, used by the model checker
// to replay executions from a pristine state.
func (b *Budget) Clone() *Budget {
	c := *b
	c.charges = append([]int(nil), b.charges...)
	return &c
}

// BudgetState is a saved copy of a budget's charges (Budget.Save). Its
// storage is reused by every Save into it.
type BudgetState struct {
	charges        []int
	members, total int
}

// Save copies the budget's charges into dst.
func (b *Budget) Save(dst *BudgetState) {
	dst.charges = append(dst.charges[:0], b.charges...)
	dst.members, dst.total = b.members, b.total
}

// Restore returns the budget to the charges saved in src, which must come
// from a Save of this budget.
func (b *Budget) Restore(src *BudgetState) {
	b.charges = append(b.charges[:0], src.charges...)
	b.members, b.total = src.members, src.total
}
