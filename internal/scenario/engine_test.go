package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// pinExplicit is a small churn-free scenario over four explicit relays:
// three circuits, two policy arms, distinct paths sharing a slow relay.
func pinExplicit() Scenario {
	fast := netem.Symmetric(units.Mbps(60), 4*time.Millisecond, 0)
	slow := netem.Symmetric(units.Mbps(12), 6*time.Millisecond, 0)
	return Scenario{
		Name: "pin-explicit",
		Seed: 11,
		Topology: Topology{Relays: []RelaySpec{
			{ID: "r1", Access: fast}, {ID: "r2", Access: slow},
			{ID: "r3", Access: fast}, {ID: "r4", Access: slow},
		}},
		Circuits: CircuitSet{
			Paths:        [][]netem.NodeID{{"r1", "r2", "r3"}, {"r2", "r3", "r4"}, {"r4", "r1", "r2"}},
			TransferSize: 150 * units.Kilobyte,
		},
		Arms: []Arm{
			{Name: "circuitstart"},
			{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		Horizon: 60 * sim.Second,
	}
}

// pinGenerated is pinExplicit's counterpart over a generated population
// with bandwidth-weighted sampled paths.
func pinGenerated() Scenario {
	pop := workload.DefaultRelayParams(10)
	return Scenario{
		Name:     "pin-generated",
		Seed:     13,
		Topology: Topology{Population: &pop},
		Circuits: CircuitSet{Count: 5, TransferSize: 150 * units.Kilobyte},
		Arms: []Arm{
			{Name: "circuitstart"},
			{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		Horizon: 300 * sim.Second,
	}
}

// killOldest caps every relay at two circuits, evicting the oldest.
func killOldest(sc *Scenario) {
	for i := range sc.Arms {
		sc.Arms[i].Relay = relay.Config{Limits: resource.Limits{MaxCircuits: 2, Policy: resource.KillOldest}}
	}
}

// churnFreeCases are the single-clock, churn-free scenario shapes whose
// rendered output is pinned. Every row runs both policy arms; allDone
// rows must complete every transfer within the horizon.
var churnFreeCases = []struct {
	name    string
	sc      func(t *testing.T) Scenario
	allDone bool
	want    string // sha256 of Result.WriteText
}{
	{"explicit/together", func(*testing.T) Scenario { return pinExplicit() }, true,
		"788081bc3124e3719eaa721625d6ecc22b8146ab410d59e0ef895261615b97e8"},
	{"explicit/uniform/sizemix/download", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.TransferSize = 0
		sc.Circuits.SizeMix = []units.DataSize{40 * units.Kilobyte, 200 * units.Kilobyte}
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 150 * time.Millisecond}
		return sc
	}, true, "1ca3c28de0dec9c788b8bda288c8bd17c548635ea361d18e1979776648ba7b8b"},
	{"explicit/poisson", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.Arrival = Arrival{Kind: ArrivePoisson, Rate: 20}
		sc.Replications = 2
		return sc
	}, true, "da71e0aff4b216152e62f74844ace661faf4d4ec1e030d5d31b94bc1676c300a"},
	{"explicit/kill-oldest", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.Paths = [][]netem.NodeID{{"r1", "r2", "r3"}}
		sc.Circuits.Count = 4
		killOldest(&sc)
		return sc
	}, false, "d18265da20742b0902cabe61535afd2e7863b8f40cffc358a25c9abb94bbe4bf"},
	{"explicit/backbone/full-horizon", func(*testing.T) Scenario {
		sc := sharedTrunkScenario(units.Mbps(8), nil)
		sc.Arms = pinExplicit().Arms
		sc.Horizon = 5 * sim.Second
		sc.RunFullHorizon = true
		return sc
	}, true, "5497d47dd6ba7f278cf9d8a8769e64995c9d0a548f5899e8bcaa188fb4441167"},
	{"generated/together", func(*testing.T) Scenario { return pinGenerated() }, true,
		"692a0303ab2b8c050dd97300cccaeb6ecb1fd557a2e5a497b57c7f7aa58e27ed"},
	{"generated/uniform/download", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 200 * time.Millisecond}
		return sc
	}, true, "27014f00ca89c0088ba2873d4a129d2460a1d848b68652d6f7bf83e9bff8529f"},
	{"generated/uniform/sizemix", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.TransferSize = 0
		sc.Circuits.SizeMix = []units.DataSize{30 * units.Kilobyte, 250 * units.Kilobyte}
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 200 * time.Millisecond}
		return sc
	}, true, "f62b39fbc2d98c5d327da1e541c6a3a763f799d496d741fa9af4e626d79c156c"},
	{"generated/poisson/download", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArrivePoisson, Rate: 30}
		return sc
	}, true, "2b8cb98cf61fe022e955e8b2ffaa785154d067e1309ef33d08348bb61b1fb608"},
	{"generated/backbone/uniform", func(t *testing.T) Scenario {
		sc := pinGenerated()
		spec, err := workload.GenerateBackbone(workload.DefaultBackboneParams(10, 3))
		if err != nil {
			t.Fatal(err)
		}
		sc.Topology.Fabric = &spec
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond}
		return sc
	}, true, "9deb08bdddbfe6808c99eafa2d7910d557d6f83205ecbe5a2874b0cee50128d1"},
	{"generated/kill-oldest", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Count = 8
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond}
		killOldest(&sc)
		return sc
	}, false, "bcdde0589ae3f3d889619e15087fe7a2a3a05c4d23b5d9cc874052e5a3cda012"},
}

// TestChurnFreeOutputPinned pins the rendered Result of churn-free
// single-clock trials — explicit and generated topologies, every
// arrival process, fixed sizes and size mixes, both directions, a
// kill-oldest circuit cap and a full-horizon run. The digests were
// recorded from the dedicated churn-free path these trials ran on
// before the lifecycle engine took them over.
func TestChurnFreeOutputPinned(t *testing.T) {
	for _, tc := range churnFreeCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Runner{Workers: 2}.Run(tc.sc(t))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := res.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("output digest %s, want %s; output:\n%s", got, tc.want, b.String())
			}
			for _, arm := range res.Arms {
				if tc.allDone && arm.Incomplete > 0 {
					t.Errorf("arm %s left %d transfers incomplete", arm.Name, arm.Incomplete)
				}
				if arm.Churn != (ChurnStats{}) {
					t.Errorf("arm %s reports churn %+v on a churn-free trial", arm.Name, arm.Churn)
				}
			}
			// Same seed, same paths: any TTLB difference between the
			// arms is the startup policy's.
			if a, b := res.Arms[0].TTLB.Sorted(), res.Arms[1].TTLB.Sorted(); equalFloats(a, b) {
				t.Errorf("policy arms produced identical TTLBs %v — policy not plumbed through", a)
			}
		})
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGeneratedRunFullHorizon(t *testing.T) {
	// A churn-free trial stops its clock at the last completion, with
	// in-flight events still queued before the horizon; RunFullHorizon
	// plays every event up to the horizon, on generated topologies too.
	for _, full := range []bool{false, true} {
		sc := pinGenerated()
		sc.Horizon = 20 * sim.Second
		sc.RunFullHorizon = full
		if err := sc.validate(); err != nil {
			t.Fatal(err)
		}
		e, err := newChurnEngine(sc, sc.Arms[0], sc.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.n.RunUntil(sc.Horizon)
		for _, d := range e.downloads {
			if !d.done {
				t.Fatalf("RunFullHorizon=%v: download %d incomplete", full, d.index)
			}
		}
		next, pending := e.n.Clock().Next()
		if ranToHorizon := !pending || next > sc.Horizon; ranToHorizon != full {
			t.Errorf("RunFullHorizon=%v: ran to horizon %v (next event %v, pending %v)", full, ranToHorizon, next, pending)
		}
	}
}
