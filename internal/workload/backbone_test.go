package workload

import (
	"fmt"
	"testing"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestGenerateBackboneShapes(t *testing.T) {
	cases := []struct {
		kind       BackboneKind
		k          int
		wantTrunks int
	}{
		{BackboneLine, 4, 3},
		{BackboneRing, 4, 4},
		{BackboneRing, 2, 1}, // a 2-ring is the line, not a doubled trunk
		{BackboneFull, 4, 6},
		{BackboneRing, 1, 0}, // single switch: degenerate star
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-%d", tc.kind, tc.k), func(t *testing.T) {
			p := DefaultBackboneParams(10, tc.k)
			p.Kind = tc.kind
			spec, err := GenerateBackbone(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(spec.Switches) != tc.k {
				t.Fatalf("%d switches, want %d", len(spec.Switches), tc.k)
			}
			if len(spec.Trunks) != tc.wantTrunks {
				t.Fatalf("%d trunks, want %d", len(spec.Trunks), tc.wantTrunks)
			}
			// Every relay the population will generate is pinned,
			// round-robin across all switches.
			perSwitch := map[netem.SwitchID]int{}
			for i := 0; i < 10; i++ {
				id := netem.NodeID(fmt.Sprintf("relay-%03d", i))
				sw, ok := spec.Homes[id]
				if !ok {
					t.Fatalf("relay %s unpinned", id)
				}
				perSwitch[sw]++
			}
			if len(perSwitch) != tc.k {
				t.Fatalf("relays spread over %d of %d switches", len(perSwitch), tc.k)
			}
		})
	}
}

func TestGenerateBackboneValidation(t *testing.T) {
	if _, err := GenerateBackbone(BackboneParams{Relays: DefaultRelayParams(4)}); err == nil {
		t.Error("zero switches accepted")
	}
	p := DefaultBackboneParams(4, 2)
	p.TrunkRate = 0
	if _, err := GenerateBackbone(p); err == nil {
		t.Error("zero trunk rate accepted")
	}
	p = DefaultBackboneParams(4, 2)
	p.Kind = BackboneKind(99)
	if _, err := GenerateBackbone(p); err == nil {
		t.Error("unknown kind accepted")
	}
	p = DefaultBackboneParams(0, 2)
	if _, err := GenerateBackbone(p); err == nil {
		t.Error("zero relays accepted")
	}
}

func TestBuildOnBackboneRunsToCompletion(t *testing.T) {
	p := ScenarioParams{
		Relays:         DefaultRelayParams(8),
		Circuits:       4,
		HopsPerCircuit: 3,
		TransferSize:   100 * units.Kilobyte,
	}
	bp := DefaultBackboneParams(8, 3)
	spec, err := GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	p.Fabric = &spec

	sc, err := Build(11, p)
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := sc.Network.Fabric().(*netem.GraphFabric)
	if !ok {
		t.Fatal("network not on a graph fabric")
	}
	for i, r := range runAll(sc, p.TransferSize, false, 600*sim.Second) {
		if !r.Done {
			t.Fatalf("circuit %d incomplete", i)
		}
	}
	if gf.UnknownDst() != 0 || gf.Unroutable() != 0 {
		t.Errorf("backbone dropped frames: unknown=%d unroutable=%d",
			gf.UnknownDst(), gf.Unroutable())
	}
	var crossed uint64
	for _, l := range gf.Trunks() {
		crossed += l.Stats().CellsDelivered
	}
	if crossed == 0 {
		t.Error("no traffic crossed any trunk — homes all collapsed?")
	}
}

func TestBuildOnBackboneDeterministic(t *testing.T) {
	run := func() []transfer {
		p := ScenarioParams{
			Relays:         DefaultRelayParams(6),
			Circuits:       3,
			HopsPerCircuit: 3,
			TransferSize:   50 * units.Kilobyte,
		}
		spec, err := GenerateBackbone(DefaultBackboneParams(6, 2))
		if err != nil {
			t.Fatal(err)
		}
		p.Fabric = &spec
		sc, err := Build(5, p)
		if err != nil {
			t.Fatal(err)
		}
		return runAll(sc, p.TransferSize, false, 600*sim.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("circuit %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBuildRejectsBadFabric(t *testing.T) {
	p := ScenarioParams{
		Relays:         DefaultRelayParams(4),
		Circuits:       2,
		HopsPerCircuit: 2,
		TransferSize:   units.Kilobyte,
		Fabric:         &netem.GraphSpec{}, // no switches
	}
	if _, err := Build(1, p); err == nil {
		t.Error("invalid fabric spec accepted")
	}
}
