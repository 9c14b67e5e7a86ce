package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesUnsupported(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0.5, false},
		{1, 0.5, true},
		{99, 0.90, false}, // 9 samples beyond p90
		{100, 0.90, true}, // 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.99, false},
		{5, 1.0, false},
		{5, 0, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
	if m, _ := percentile([]float64{3, 1, 2}, 0.5); m != 2 {
		t.Errorf("median of {3,1,2} = %g, want 2", m)
	}
	if m, _ := percentile([]float64{4, 1, 2, 3}, 0.5); m != 2.5 {
		t.Errorf("median of {4,1,2,3} = %g, want 2.5", m)
	}
	for n, want := range map[int]float64{50: 0, 100: 0.90, 1000: 0.99, 10000: 0.999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{start: t0.Add(time.Duration(a) * time.Second), end: t0.Add(time.Duration(b) * time.Second)}
	}
	parent := at(0, 10)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 10 * time.Second},
		{"disjoint", []span{at(1, 2), at(4, 6)}, 7 * time.Second},
		// [1,3] and [2,5] overlap: their union [1,5] counts once.
		{"overlapping", []span{at(2, 5), at(1, 3), at(7, 8)}, 5 * time.Second},
		// Children sticking out of the parent are clipped to it.
		{"clipped", []span{at(-3, 1), at(9, 12)}, 8 * time.Second},
		{"nested", []span{at(1, 9), at(2, 3)}, 2 * time.Second},
		{"outside", []span{at(11, 12)}, 10 * time.Second},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// trainRecorder is a node handler that records how frames reached it.
type trainRecorder struct {
	delivers int
	trains   []int // batch sizes of DeliverTrain calls
}

func (r *trainRecorder) Deliver(*netem.Frame)           { r.delivers++ }
func (r *trainRecorder) DeliverTrain(fs []*netem.Frame) { r.trains = append(r.trains, len(fs)) }

// plainRecorder has no DeliverTrain.
type plainRecorder struct{ delivers int }

func (r *plainRecorder) Deliver(*netem.Frame) { r.delivers++ }

func TestDecoratorKeepsTrainsWhole(t *testing.T) {
	clock := sim.NewClock()
	fab := &timedFabric{Fabric: netem.NewStarFabric(clock)}
	rng := sim.NewRNG(1, "test")
	acc := netem.Symmetric(units.Mbps(10), time.Millisecond, 0)
	acc.TrainSize = 8
	src := fab.Attach("src", acc, &plainRecorder{}, rng)
	trained := &trainRecorder{}
	fab.Attach("trained", acc, trained, rng)
	plain := &plainRecorder{}
	fab.Attach("plain", acc, plain, rng)

	const frames = 16
	for i := 0; i < frames; i++ {
		src.Send("trained", 512, nil)
		src.Send("plain", 512, nil)
	}
	clock.Run()

	got := 0
	batched := false
	for _, n := range trained.trains {
		got += n
		batched = batched || n > 1
	}
	if got+trained.delivers != frames {
		t.Fatalf("trained node received %d frames, want %d", got+trained.delivers, frames)
	}
	if !batched {
		t.Fatalf("no train reached the node as a batch: trains %v, %d single delivers", trained.trains, trained.delivers)
	}
	// Every DeliverTrain the link made reached the node as one call.
	if fab.endpoints.trains != uint64(len(trained.trains)) {
		t.Errorf("decorator saw %d DeliverTrain calls, node got %d", fab.endpoints.trains, len(trained.trains))
	}
	if plain.delivers != frames {
		t.Errorf("plain node got %d Deliver calls, want %d", plain.delivers, frames)
	}
	if fab.endpoints.frames != 2*frames {
		t.Errorf("decorator counted %d frames, want %d", fab.endpoints.frames, 2*frames)
	}
	if fab.active != nil {
		t.Errorf("handler stack not unwound")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metric catalogues in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalogue %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, catalogue %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, harness %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, want)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// requires correct outputs and every metric reported.
func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("smoke test runs with -short")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0, trace: trace, short: true, log: io.Discard}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.led.attempted == 0 || res.led.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.led.failed, res.led.attempted)
			}
			if err := emit(io.Discard, cfg, res); err != nil {
				t.Fatal(err)
			}
			if trace {
				for _, m := range perLayerMetrics {
					if _, ok := res.rep.values[m.name]; !ok && !zeroByDesign(name, m.name) {
						t.Errorf("%s: per-layer metric %s not reported", name, m.name)
					}
				}
				continue
			}
			for _, m := range endToEndMetrics {
				if v := res.rep.values[m.name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v)
				}
			}
		}
	}
}

// zeroByDesign lists the per-layer metrics a workload does not load.
func zeroByDesign(workload, metric string) bool {
	prefix := func(p string) bool { return len(metric) >= len(p) && metric[:len(p)] == p }
	switch {
	case prefix("netem.shard."):
		return workload != "sharded_ring"
	case prefix("sweep."), prefix("spec."), prefix("serve."), prefix("traceio."):
		return workload != "sweep_serve"
	case metric == "sim.run_self_ms":
		return workload == "sharded_ring"
	}
	return false
}
