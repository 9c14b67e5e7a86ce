package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
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

// enginePin is one pinned trial shape: the sha256 of its rendered
// Result, and of its raw per-circuit outcomes (see outcomeDigest) —
// WriteText rounds to 4 significant figures and shows no per-circuit
// ExitCwnd, so the second digest catches what the first cannot.
type enginePin struct {
	name      string
	sc        func(t *testing.T) Scenario
	churnFree bool // the trial must report zero ChurnStats
	allDone   bool // every transfer must complete within the horizon
	text      string
	outcomes  string
}

// churnFreeCases are the single-clock, churn-free scenario shapes whose
// output is pinned. Every row runs both policy arms.
var churnFreeCases = []enginePin{
	{"explicit/together", func(*testing.T) Scenario { return pinExplicit() }, true, true,
		"788081bc3124e3719eaa721625d6ecc22b8146ab410d59e0ef895261615b97e8",
		"c8e9cce2e6156f4a0ee000428aaa086148a680cb78837aa9392629f1ed80faa7"},
	{"explicit/uniform/sizemix/download", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.TransferSize = 0
		sc.Circuits.SizeMix = []units.DataSize{40 * units.Kilobyte, 200 * units.Kilobyte}
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 150 * time.Millisecond}
		return sc
	}, true, true, "1ca3c28de0dec9c788b8bda288c8bd17c548635ea361d18e1979776648ba7b8b",
		"bfb91c7848a8dff62f3e2aa3ba6cb6a079425168d7bc1c8a1b8d1752b898a568"},
	{"explicit/poisson", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.Arrival = Arrival{Kind: ArrivePoisson, Rate: 20}
		sc.Replications = 2
		return sc
	}, true, true, "da71e0aff4b216152e62f74844ace661faf4d4ec1e030d5d31b94bc1676c300a",
		"ca02934d5ce06b035b4690475361703b314c95af29a52dc1d058341cd74d4068"},
	{"explicit/kill-oldest", func(*testing.T) Scenario {
		sc := pinExplicit()
		sc.Circuits.Paths = [][]netem.NodeID{{"r1", "r2", "r3"}}
		sc.Circuits.Count = 4
		killOldest(&sc)
		return sc
	}, true, false, "d18265da20742b0902cabe61535afd2e7863b8f40cffc358a25c9abb94bbe4bf",
		"5353855d4d8d0a28538389329b2a0d68e5fbbdd69aa131695a9d71d829d95a09"},
	{"explicit/backbone/full-horizon", func(*testing.T) Scenario {
		sc := sharedTrunkScenario(units.Mbps(8), nil)
		sc.Arms = pinExplicit().Arms
		sc.Horizon = 5 * sim.Second
		sc.RunFullHorizon = true
		return sc
	}, true, true, "5497d47dd6ba7f278cf9d8a8769e64995c9d0a548f5899e8bcaa188fb4441167",
		"1c712532320d9a55e971f8034368e22d5c601aa5e60ef4c2ca07d94658ef8ec7"},
	{"generated/together", func(*testing.T) Scenario { return pinGenerated() }, true, true,
		"692a0303ab2b8c050dd97300cccaeb6ecb1fd557a2e5a497b57c7f7aa58e27ed",
		"8a2f2a150c4866147315cd7158ffd3b0576fc8f33293e21cfe96420fcede6853"},
	{"generated/uniform/download", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 200 * time.Millisecond}
		return sc
	}, true, true, "27014f00ca89c0088ba2873d4a129d2460a1d848b68652d6f7bf83e9bff8529f",
		"44ac5604ec2fe8ab81fb939e95d911dbe1d3deb8252111e85024ff1572263687"},
	{"generated/uniform/sizemix", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.TransferSize = 0
		sc.Circuits.SizeMix = []units.DataSize{30 * units.Kilobyte, 250 * units.Kilobyte}
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 200 * time.Millisecond}
		return sc
	}, true, true, "f62b39fbc2d98c5d327da1e541c6a3a763f799d496d741fa9af4e626d79c156c",
		"d7c6a8083e6bb2d9e2e39ed5ec0edfba72e70fee350e796942dec84bb2621fb7"},
	{"generated/poisson/download", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Download = true
		sc.Circuits.Arrival = Arrival{Kind: ArrivePoisson, Rate: 30}
		return sc
	}, true, true, "2b8cb98cf61fe022e955e8b2ffaa785154d067e1309ef33d08348bb61b1fb608",
		"c5a3dfb5bd18ae847b0b07dbfba4601c7edb3e418d0208f961b20fc3def963d0"},
	{"generated/backbone/uniform", func(t *testing.T) Scenario {
		sc := pinGenerated()
		spec, err := workload.GenerateBackbone(workload.DefaultBackboneParams(10, 3))
		if err != nil {
			t.Fatal(err)
		}
		sc.Topology.Fabric = &spec
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond}
		return sc
	}, true, true, "9deb08bdddbfe6808c99eafa2d7910d557d6f83205ecbe5a2874b0cee50128d1",
		"4a7d1bd1e70ebe570932e19609fede9fdc60a2ed060ec2ebf42ce90ec71a01f4"},
	{"generated/kill-oldest", func(*testing.T) Scenario {
		sc := pinGenerated()
		sc.Circuits.Count = 8
		sc.Circuits.Arrival = Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond}
		killOldest(&sc)
		return sc
	}, true, false, "bcdde0589ae3f3d889619e15087fe7a2a3a05c4d23b5d9cc874052e5a3cda012",
		"c305dd91fc052b3bd8548801c47d29604110e79fe9f96246a9589ebead0e7d0f"},
}

// engineCases pin the dynamic lifecycle on the clock plane (arrivals,
// lingers, scheduled teardowns, relay fail/recover under Rebuild and
// no-Rebuild arms, recovery watchdogs) and the barrier plane, churned
// and churn-free. Absolute sharded bytes are otherwise pinned only by
// the churn-free golden_sharded fixture.
var engineCases = []enginePin{
	{"churn", func(*testing.T) Scenario { return churnScenario() }, false, false,
		"5dd9dc6688e8cbf5e7b50c0808fe32403bfbf45a1758a87cd484884054eb66b4",
		"ec5f59e3326470b5ecac79c847030a44e8a5cbf05b62fc500377d5655a4e450c"},
	{"faulted", func(*testing.T) Scenario { return faultedScenario() }, false, false,
		"766301839a925e58277ac0025309e98bfdab3f7fde2ecbc06f48773db3572a37",
		"c38c3ba82ba69dde47e4100535398ccdbe388900fd39892c3ece412e51c221a0"},
	{"sharded-churn/shards=0", func(*testing.T) Scenario { return shardedChurnScenario(0) }, false, false,
		"1db27a1fd340a90f6856d09d8d07681df6921b93e6c67a0dbf421139231e3daa",
		"c4c7ffd0bc9d766c47bd2348cbee6a28fc8d75e6a9a75de57cf9ea87bc0c62a2"},
	{"sharded-churn/shards=1", func(*testing.T) Scenario { return shardedChurnScenario(1) }, false, false,
		"1bacdf1a83cd780f2efe7fc8ebb04d2f25a95c1de4fc38164dd0e77d39809209",
		"73f7dae6994aeb6a24521c566a846ecc8efd40c2915804a7b7814ba4a28060b4"},
	{"shared-trunk/shards=2", func(*testing.T) Scenario {
		sc := sharedTrunkScenario(units.Mbps(40), nil)
		sc.Shards = 2
		return sc
	}, true, true,
		"4915896f2a57bccc5d621f9529d29dc6bd1d0313fb2bb698b98822db74fd9852",
		"58b5341750fa3f5c8e56a1e26fc2efc74a8a1f5fb87811012de3694822daf3a1"},
}

// TestChurnFreeOutputPinned pins the output of churn-free single-clock
// trials — explicit and generated topologies, every arrival process,
// fixed sizes and size mixes, both directions, a kill-oldest circuit
// cap and a full-horizon run. The text digests were recorded from the
// dedicated churn-free path these trials ran on before the lifecycle
// engine took them over.
func TestChurnFreeOutputPinned(t *testing.T) {
	for _, tc := range churnFreeCases {
		t.Run(tc.name, func(t *testing.T) { checkPin(t, tc) })
	}
}

// TestEngineOutputPinned pins churned, faulted and sharded trials; the
// digests were recorded while each plane still had its own engine.
func TestEngineOutputPinned(t *testing.T) {
	for _, tc := range engineCases {
		t.Run(tc.name, func(t *testing.T) { checkPin(t, tc) })
	}
}

func checkPin(t *testing.T, tc enginePin) {
	res, err := Runner{Workers: 2}.Run(tc.sc(t))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != tc.text {
		t.Errorf("output digest %s, want %s; output:\n%s", got, tc.text, b.String())
	}
	if got := outcomeDigest(res); got != tc.outcomes {
		t.Errorf("outcome digest %s, want %s", got, tc.outcomes)
	}
	for _, arm := range res.Arms {
		if tc.allDone && arm.Incomplete > 0 {
			t.Errorf("arm %s left %d transfers incomplete", arm.Name, arm.Incomplete)
		}
		if tc.churnFree && arm.Churn != (ChurnStats{}) {
			t.Errorf("arm %s reports churn %+v on a churn-free trial", arm.Name, arm.Churn)
		}
	}
	// Same seed, same paths: any TTLB difference between the arms is
	// the startup policy's.
	if tc.churnFree && len(res.Arms) > 1 {
		if a, b := res.Arms[0].TTLB.Sorted(), res.Arms[1].TTLB.Sorted(); equalFloats(a, b) {
			t.Errorf("policy arms produced identical TTLBs %v — policy not plumbed through", a)
		}
	}
}

// outcomeDigest hashes every arm's per-circuit outcomes (cwnd trace
// cleared) at full precision, plus its sorted circuit lifetimes and
// times-to-recovery.
func outcomeDigest(res *Result) string {
	h := sha256.New()
	for _, arm := range res.Arms {
		for _, o := range arm.Circuits {
			o.Trace = nil
			fmt.Fprintf(h, "%+v\n", o)
		}
		if d := arm.Churn.Lifetime; d != nil {
			fmt.Fprintln(h, "lifetime", d.Sorted())
		}
		if d := arm.Resilience.TTR; d != nil {
			fmt.Fprintln(h, "ttr", d.Sorted())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
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
		e, err := newEngine(sc, sc.Arms[0], sc.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.plane.run(sc.Horizon)
		for _, d := range e.downloads {
			if !d.done {
				t.Fatalf("RunFullHorizon=%v: download %d incomplete", full, d.index)
			}
		}
		next, pending := e.plane.(*clockPlane).n.Clock().Next()
		if ranToHorizon := !pending || next > sc.Horizon; ranToHorizon != full {
			t.Errorf("RunFullHorizon=%v: ran to horizon %v (next event %v, pending %v)", full, ranToHorizon, next, pending)
		}
	}
}

// differentialScenario is a churn-free generated trial over a backbone,
// run on either plane.
func differentialScenario(t *testing.T, shards, train int, arrival Arrival, full bool) Scenario {
	bp := workload.DefaultBackboneParams(24, 4)
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Name:     "differential",
		Seed:     7,
		Shards:   shards,
		Topology: Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: CircuitSet{Count: 6, Hops: 3, TransferSize: 200 * units.Kilobyte, Arrival: arrival},
		Arms: []Arm{
			{Name: "circuitstart"},
			{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		TrainSize:      train,
		Horizon:        10 * sim.Second,
		RunFullHorizon: full,
	}
}

// TestEngineDifferential runs the same churn-free trial on the clock
// plane (Shards 0) and the barrier plane (Shards 1). Every per-circuit
// outcome must agree. Trunk statistics must agree only under
// RunFullHorizon: with an early stop the clock stops at the last
// completion and the barrier plane at the barrier after it, so frames
// still in flight are counted on one plane and not the other. (Churn
// trials diverge by design; see DESIGN.md, "The scenario layer".)
func TestEngineDifferential(t *testing.T) {
	arrivals := map[string]Arrival{
		"together": {},
		"uniform":  {Kind: ArriveUniform, Spread: 150 * time.Millisecond},
		"poisson":  {Kind: ArrivePoisson, Rate: 30},
	}
	for _, kind := range []string{"together", "uniform", "poisson"} {
		for _, train := range []int{0, 2} {
			for _, full := range []bool{false, true} {
				name := fmt.Sprintf("%s/train=%d/full=%v", kind, train, full)
				t.Run(name, func(t *testing.T) {
					var res [2]*Result
					for shards := range res {
						r, err := Runner{Workers: 1}.Run(differentialScenario(t, shards, train, arrivals[kind], full))
						if err != nil {
							t.Fatal(err)
						}
						res[shards] = r
					}
					for i, clock := range res[0].Arms {
						barrier := res[1].Arms[i]
						if len(clock.Circuits) != len(barrier.Circuits) {
							t.Fatalf("arm %s: %d vs %d outcomes", clock.Name, len(clock.Circuits), len(barrier.Circuits))
						}
						for j, a := range clock.Circuits {
							b := barrier.Circuits[j]
							if !a.Done {
								t.Errorf("arm %s circuit %d incomplete", clock.Name, j)
							}
							// Churn-free single-clock trials report no
							// StartAt; the barrier plane always has.
							b.StartAt = 0
							if a != b {
								t.Errorf("arm %s circuit %d: clock %+v, barrier %+v", clock.Name, j, a, b)
							}
						}
						if full && !reflect.DeepEqual(clock.Net, barrier.Net) {
							t.Errorf("arm %s net stats: clock %+v, barrier %+v", clock.Name, clock.Net, barrier.Net)
						}
					}
				})
			}
		}
	}
}
