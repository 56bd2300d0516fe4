package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/word"
)

// sampleEvery is the timing sample rate of the traced run: every call is
// counted, one Step in sampleEvery is timed whole, another has its CAS
// timed, and one Pending call in sampleEvery is timed.
const sampleEvery = 64

// timedProtocol wraps a protocol so that its compiled form is timed from
// outside the program: Compile returns a timedStepper, which times Step,
// Pending and, through a timedEnv, the CAS each Step issues. The engine
// compiles the protocol once per worker, so each worker owns one
// timedStepper and its counters need no synchronization; they are summed
// after CheckWith returns, once every worker has stopped.
type timedProtocol struct {
	core.Protocol

	mu       sync.Mutex
	steppers []*timedStepper
}

func newTimedProtocol(p core.Protocol) *timedProtocol {
	return &timedProtocol{Protocol: p}
}

// Compile implements core.Steppable.
func (p *timedProtocol) Compile() core.Stepper {
	inner, ok := core.Compile(p.Protocol)
	if !ok {
		panic(fmt.Sprintf("perfbench: %s has no compiled form to time", p.Protocol.Name()))
	}
	s := &timedStepper{inner: inner}
	p.mu.Lock()
	p.steppers = append(p.steppers, s)
	p.mu.Unlock()
	return s
}

// layerTimes is what the timing wrapper measured: call counts, and the
// number and summed duration of the timed samples of each call.
type layerTimes struct {
	steps, stepSamples, stepNS        int64
	casCalls, casSamples, casNS       int64
	pendingCalls, pendSamples, pendNS int64
}

func (t *layerTimes) add(u layerTimes) {
	t.steps += u.steps
	t.stepSamples += u.stepSamples
	t.stepNS += u.stepNS
	t.casCalls += u.casCalls
	t.casSamples += u.casSamples
	t.casNS += u.casNS
	t.pendingCalls += u.pendingCalls
	t.pendSamples += u.pendSamples
	t.pendNS += u.pendNS
}

// totals sums the counters of every stepper the engine compiled. Call it
// only after the exploration has returned.
func (p *timedProtocol) totals() layerTimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t layerTimes
	for _, s := range p.steppers {
		t.add(s.t)
		t.add(s.env.t)
	}
	return t
}

// timedStepper is one worker's timing wrapper around the compiled form.
// It allocates nothing per call: the env handed to the inner Step is a
// field of the stepper, re-pointed at the engine's per-process env on
// every call. The padding keeps two workers' counters off one cache line.
type timedStepper struct {
	_     [64]byte
	inner core.Stepper
	env   timedEnv
	t     layerTimes
	_     [64]byte
}

// Begin implements core.Stepper.
func (s *timedStepper) Begin(input int64) core.State { return s.inner.Begin(input) }

// Step implements core.Stepper. Step number k is timed whole when
// k%sampleEvery is 0 and has its CAS timed when it is sampleEvery/2, so no
// timed sample contains another one.
func (s *timedStepper) Step(st *core.State, env core.Env) (bool, int64) {
	s.t.steps++
	s.env.inner = env
	switch s.t.steps % sampleEvery {
	case 0:
		start := time.Now()
		done, decided := s.inner.Step(st, &s.env)
		s.t.stepNS += int64(time.Since(start))
		s.t.stepSamples++
		return done, decided
	case sampleEvery / 2:
		s.env.timing = true
		done, decided := s.inner.Step(st, &s.env)
		s.env.timing = false
		return done, decided
	}
	return s.inner.Step(st, &s.env)
}

// pendingBatch is how many times a timed Pending sample calls the inner
// Pending: one call takes a few nanoseconds, far less than the clock
// reads around it, and Pending is a pure function of the state, so
// repeating it changes nothing.
const pendingBatch = 16

// Pending implements core.Stepper, timing one call in sampleEvery.
func (s *timedStepper) Pending(st *core.State) (int, word.Word, word.Word) {
	s.t.pendingCalls++
	if s.t.pendingCalls%sampleEvery != 0 {
		return s.inner.Pending(st)
	}
	start := time.Now()
	for i := 1; i < pendingBatch; i++ {
		s.inner.Pending(st)
	}
	obj, exp, new := s.inner.Pending(st)
	s.t.pendNS += int64(time.Since(start))
	s.t.pendSamples++
	return obj, exp, new
}

// Footprint implements core.Stepper.
func (s *timedStepper) Footprint(st *core.State) (int, int) { return s.inner.Footprint(st) }

// timedEnv is the core.Env a timed Step sees: it counts every CAS and
// times the CAS of the Steps its stepper marks.
type timedEnv struct {
	inner  core.Env
	timing bool
	t      layerTimes
}

// CAS implements core.Env.
func (e *timedEnv) CAS(i int, exp, new word.Word) word.Word {
	e.t.casCalls++
	if !e.timing {
		return e.inner.CAS(i, exp, new)
	}
	start := time.Now()
	old := e.inner.CAS(i, exp, new)
	e.t.casNS += int64(time.Since(start))
	e.t.casSamples++
	return old
}

// Len implements core.Env.
func (e *timedEnv) Len() int { return e.inner.Len() }

// clockCost is what an empty timed region reads as on this host: the
// cost of the clock reads a sample adds. The per-call means subtract it.
var clockCost = sync.OnceValue(func() float64 {
	const batches, n = 9, 1 << 14
	means := make([]float64, batches)
	for b := range means {
		var sum time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			sum += time.Since(start)
		}
		means[b] = float64(sum) / n
	}
	sort.Float64s(means)
	return means[batches/2]
})

// meanNS is the mean duration of one call, from samples timed regions of
// calls calls each, less the clock's own cost.
func meanNS(sumNS, samples int64, calls int) float64 {
	if samples == 0 {
		return 0
	}
	return max(float64(sumNS)/float64(samples)-clockCost(), 0) / float64(calls)
}
