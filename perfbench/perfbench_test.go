package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/word"
)

// outcome is what the timing wrapper must leave unchanged.
type outcome struct {
	Executions int
	Complete   bool
	Verdict    string
	Path       []int
	Counters   map[string]int64
}

// checkOutcome runs CheckWith on proto and reports its outcome together
// with the registry's dedup and reduce counters.
func checkOutcome(t *testing.T, proto core.Protocol, opts ...run.Option) outcome {
	t.Helper()
	reg := obs.NewRegistry()
	out, err := explore.CheckWith(context.Background(),
		append([]run.Option{run.WithProtocol(proto), run.WithMetrics(reg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	o := outcome{Executions: out.Executions, Complete: out.Complete, Verdict: "VERIFIED", Counters: map[string]int64{}}
	if out.Violation != nil {
		o.Verdict = out.Violation.Verdict.String()
		o.Path = out.Violation.Path
	}
	for _, name := range []string{"explore.dedup.prunes", "explore.reduce.prunes"} {
		o.Counters[name] = snap.Counters[name]
	}
	for _, name := range []string{"dedup.states", "dedup.lookups", "dedup.hits", "dedup.leaf_lookups"} {
		o.Counters[name] = snap.Gauges[name]
	}
	return o
}

func TestTimedProtocolLeavesResultsUnchanged(t *testing.T) {
	cases := []struct {
		name  string
		proto core.Protocol
		opts  []run.Option
		want  int // executions, or 0 to skip the check
	}{
		{"figure3 f=1 t=1 n=2", core.NewStaged(1, 1),
			[]run.Option{run.WithInputs(10, 11), run.WithAllObjectsFaulty(1), run.WithWorkers(2)}, 4356},
		// One worker: a run that stops at its first violation counts
		// executions exactly only without a second worker racing it.
		{"figure3 f=1 t=1 n=3 violation", core.NewStaged(1, 1),
			[]run.Option{run.WithInputs(10, 11, 12), run.WithAllObjectsFaulty(1), run.WithWorkers(1)}, 0},
		{"verify", core.NewFPlusOne(2), verifyOptions(1), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := checkOutcome(t, c.proto, c.opts...)
			tp := newTimedProtocol(c.proto)
			timed := checkOutcome(t, tp, c.opts...)
			if !reflect.DeepEqual(plain, timed) {
				t.Fatalf("timed run differs:\n plain %+v\n timed %+v", plain, timed)
			}
			if c.want != 0 && plain.Executions != c.want {
				t.Fatalf("executions = %d, want %d", plain.Executions, c.want)
			}
			if tot := tp.totals(); tot.steps == 0 || tot.casCalls != tot.steps {
				t.Fatalf("wrapper counted %+v", tot)
			}
		})
	}
}

func TestVerifyCountsMatchAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs verify four times")
	}
	// store.bytes is left out: the checkpoint records the inputs, so its
	// size follows their digits.
	counts := []string{"explore.executions", "explore.replays", "core.steps", "object.cas_calls",
		"reduce.prunes", "reduce.pending_calls", "dedup.lookups", "dedup.hits", "dedup.states", "store.saves"}
	var first map[string]float64
	for seed := int64(1); seed <= 4; seed++ {
		j, err := setupVerify(seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.run(context.Background(), true)
		j.close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := map[string]float64{}
		for _, name := range counts {
			got[name] = res.layers[name]
		}
		if first == nil {
			first = got
			t.Logf("seed 1 counts: %v", got)
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("seed %d counts %v, seed 1 %v", seed, got, first)
		}
	}
}

func TestSweepMeetsItsKnownAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sweep slab")
	}
	j, err := setupSweep(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	res, err := j.run(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.executions != sweepSlab || res.layers["dedup.lookups"] != 0 || res.layers["reduce.pending_calls"] != 0 {
		t.Fatalf("sweep measured %d executions, layers %v", res.executions, res.layers)
	}
}

// nullEnv is a core.Env whose objects always hold ⊥.
type nullEnv struct{}

func (nullEnv) CAS(int, word.Word, word.Word) word.Word { return word.Bottom }
func (nullEnv) Len() int                                { return 3 }

func TestTimedStepperAllocatesNothing(t *testing.T) {
	s := newTimedProtocol(core.NewFPlusOne(2)).Compile()
	var env core.Env = nullEnv{}
	st := new(core.State)
	allocs := testing.AllocsPerRun(1000, func() {
		*st = s.Begin(7)
		for done := false; !done; {
			s.Pending(st)
			done, _ = s.Step(st, env)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run", allocs)
	}
}

func TestSeededInputs(t *testing.T) {
	a, b := seededInputs(5, 4), seededInputs(5, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different inputs: %v %v", a, b)
	}
	if reflect.DeepEqual(a, seededInputs(6, 4)) {
		t.Fatalf("seeds 5 and 6 drew the same inputs %v", a)
	}
	seen := map[int64]bool{}
	for _, v := range a {
		if v < 0 || v > word.MaxValue || seen[v] {
			t.Fatalf("inputs %v are not distinct values in [0, %d]", a, word.MaxValue)
		}
		seen[v] = true
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists of the program and
// of BENCHMARK.json, at the root of the repository, the same.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit string }
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.spec {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program %v", c.name, got, c.prog)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var prog []string
	for _, w := range workloads {
		prog = append(prog, w.name)
	}
	if !reflect.DeepEqual(names, prog) {
		t.Errorf("workloads: BENCHMARK.json lists %v, the program %v", names, prog)
	}
}

// TestReportLineKeys checks the result line carries exactly the keys
// correct, attempted, failed and metrics.
func TestReportLineKeys(t *testing.T) {
	r := endToEndReport(phase{attempted: 1, walls: []float64{1}, cpus: []float64{1}}, 0.5)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("result line keys %v", keys)
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("result line metrics %v, want every end-to-end metric", r.Metrics)
	}
}
