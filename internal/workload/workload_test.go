package workload

import (
	"testing"
	"time"

	"circuitstart/internal/directory"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestGenerateRelaysValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RelayParams)
	}{
		{"zero relays", func(p *RelayParams) { p.N = 0 }},
		{"zero bandwidth", func(p *RelayParams) { p.BandwidthMedian = 0 }},
		{"bad delays", func(p *RelayParams) { p.DelayMax = p.DelayMin - time.Millisecond }},
		{"bad fractions", func(p *RelayParams) { p.GuardFrac = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultRelayParams(10)
			c.mut(&p)
			if _, err := GenerateRelays(1, p); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}

func TestGenerateRelaysProperties(t *testing.T) {
	p := DefaultRelayParams(64)
	relays, err := GenerateRelays(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 64 {
		t.Fatalf("len = %d", len(relays))
	}
	ids := make(map[string]bool)
	var guards, exits int
	for _, r := range relays {
		if ids[string(r.Desc.ID)] {
			t.Fatalf("duplicate relay ID %s", r.Desc.ID)
		}
		ids[string(r.Desc.ID)] = true
		if r.Desc.Bandwidth < p.MinBandwidth || r.Desc.Bandwidth > p.MaxBandwidth {
			t.Errorf("bandwidth %v outside clamp", r.Desc.Bandwidth)
		}
		if r.Desc.Latency < p.DelayMin || r.Desc.Latency >= p.DelayMax {
			t.Errorf("latency %v outside range", r.Desc.Latency)
		}
		if !r.Desc.Flags.Has(directory.FlagMiddle) {
			t.Error("relay without Middle flag")
		}
		if r.Desc.Flags.Has(directory.FlagGuard) {
			guards++
		}
		if r.Desc.Flags.Has(directory.FlagExit) {
			exits++
		}
		if r.Access.UpRate != r.Desc.Bandwidth || r.Access.Delay != r.Desc.Latency {
			t.Error("access config inconsistent with descriptor")
		}
	}
	if guards == 0 || exits == 0 {
		t.Fatalf("guards=%d exits=%d", guards, exits)
	}
	// Heterogeneity: the population must actually spread (the experiment
	// depends on varying bottlenecks).
	minBW, maxBW := relays[0].Desc.Bandwidth, relays[0].Desc.Bandwidth
	for _, r := range relays {
		if r.Desc.Bandwidth < minBW {
			minBW = r.Desc.Bandwidth
		}
		if r.Desc.Bandwidth > maxBW {
			maxBW = r.Desc.Bandwidth
		}
	}
	if float64(maxBW) < 2*float64(minBW) {
		t.Fatalf("population too homogeneous: [%v, %v]", minBW, maxBW)
	}
}

func TestGenerateRelaysDeterministic(t *testing.T) {
	a, _ := GenerateRelays(42, DefaultRelayParams(16))
	b, _ := GenerateRelays(42, DefaultRelayParams(16))
	for i := range a {
		if a[i].Desc != b[i].Desc {
			t.Fatalf("relay %d differs across identical seeds", i)
		}
	}
	c, _ := GenerateRelays(43, DefaultRelayParams(16))
	same := true
	for i := range a {
		if a[i].Desc != c[i].Desc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestBuildValidation(t *testing.T) {
	base := DefaultScenario()
	cases := []struct {
		name string
		mut  func(*ScenarioParams)
	}{
		{"zero circuits", func(p *ScenarioParams) { p.Circuits = 0 }},
		{"zero hops", func(p *ScenarioParams) { p.HopsPerCircuit = 0 }},
		{"zero transfer", func(p *ScenarioParams) { p.TransferSize = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mut(&p)
			if _, err := Build(1, p); err == nil {
				t.Fatal("invalid scenario accepted")
			}
		})
	}
}

// transfer is one built circuit's outcome under runAll.
type transfer struct {
	TTLB time.Duration
	Done bool
}

// runAll starts a size-byte transfer on every circuit Build produced,
// all at t = 0, and runs the network to the horizon — just enough
// driving to check the built circuits carry traffic end to end.
func runAll(sc *Scenario, size units.DataSize, download bool, horizon sim.Time) []transfer {
	for _, c := range sc.Circuits {
		if download {
			c.TransferBackward(size, nil)
		} else {
			c.Transfer(size, nil)
		}
	}
	sc.Network.RunUntil(horizon)
	out := make([]transfer, len(sc.Circuits))
	for i, c := range sc.Circuits {
		out[i].TTLB, out[i].Done = c.TTLB()
	}
	return out
}

func TestSmallScenarioRunsToCompletion(t *testing.T) {
	p := DefaultScenario()
	p.Relays = DefaultRelayParams(12)
	p.Circuits = 6
	p.TransferSize = 100 * units.Kilobyte
	sc, err := Build(5, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Circuits) != 6 {
		t.Fatalf("built %d circuits", len(sc.Circuits))
	}
	for i, r := range runAll(sc, p.TransferSize, false, 120*sim.Second) {
		if !r.Done {
			t.Errorf("circuit %d incomplete", i)
			continue
		}
		if r.TTLB <= 0 {
			t.Errorf("circuit %d TTLB %v", i, r.TTLB)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() []transfer {
		p := DefaultScenario()
		p.Relays = DefaultRelayParams(10)
		p.Circuits = 4
		p.TransferSize = 50 * units.Kilobyte
		sc, err := Build(9, p)
		if err != nil {
			t.Fatal(err)
		}
		return runAll(sc, p.TransferSize, false, 120*sim.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScenarioPoliciesDiffer(t *testing.T) {
	// Same seed, different startup policy: the topology and paths are
	// identical, so any TTLB difference is attributable to the policy.
	run := func(policy string) []transfer {
		p := DefaultScenario()
		p.Relays = DefaultRelayParams(10)
		p.Circuits = 4
		p.TransferSize = 200 * units.Kilobyte
		p.Transport.Policy = policy
		sc, err := Build(9, p)
		if err != nil {
			t.Fatal(err)
		}
		return runAll(sc, p.TransferSize, false, 300*sim.Second)
	}
	cs := run("circuitstart")
	bt := run("backtap")
	differ := false
	for i := range cs {
		if !cs[i].Done || !bt[i].Done {
			t.Fatalf("circuit %d incomplete", i)
		}
		if cs[i].TTLB != bt[i].TTLB {
			differ = true
		}
	}
	if !differ {
		t.Fatal("policies produced identical TTLBs — policy not plumbed through")
	}
}

func TestDownloadScenarioCompletes(t *testing.T) {
	p := DefaultScenario()
	p.Relays = DefaultRelayParams(12)
	p.Circuits = 5
	p.TransferSize = 100 * units.Kilobyte
	sc, err := Build(21, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runAll(sc, p.TransferSize, true, 300*sim.Second) {
		if !r.Done {
			t.Errorf("download circuit %d incomplete", i)
		}
	}
	// Bytes must have arrived at the clients, not the servers.
	for i, c := range sc.Circuits {
		if c.Source().Downloaded() != p.TransferSize {
			t.Errorf("circuit %d client downloaded %v", i, c.Source().Downloaded())
		}
		if c.Source().DownloadBadCells() != 0 {
			t.Errorf("circuit %d bad cells at client", i)
		}
	}
}
