package core

import (
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

const msec = time.Millisecond

// threeHopNet builds the canonical single-circuit scenario: source →
// R1 → R2 → R3 → sink over a star, with one relay's access limited to
// bottleneck while everything else runs at fast.
func threeHopNet(t *testing.T, bottleneckRelay int, bottleneck, fast units.DataRate, opts TransportOptions) (*Network, *Circuit) {
	t.Helper()
	n := NewNetwork(42)
	relays := []netem.NodeID{"r1", "r2", "r3"}
	for i, id := range relays {
		rate := fast
		if i == bottleneckRelay {
			rate = bottleneck
		}
		if _, err := n.AddRelay(id, netem.Symmetric(rate, 5*msec, 0)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := n.BuildCircuit(CircuitSpec{
		Source:       "client",
		Sink:         "server",
		SourceAccess: netem.Symmetric(fast, 5*msec, 0),
		SinkAccess:   netem.Symmetric(fast, 5*msec, 0),
		Relays:       relays,
		Transport:    opts,
		TraceCwnd:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, c
}

func TestBuildCircuitValidation(t *testing.T) {
	n := NewNetwork(1)
	n.MustAddRelay("r1", netem.Symmetric(units.Mbps(10), msec, 0))

	cases := []struct {
		name string
		spec CircuitSpec
	}{
		{"no relays", CircuitSpec{Source: "a", Sink: "b"}},
		{"no endpoints", CircuitSpec{Relays: []netem.NodeID{"r1"}}},
		{"unknown relay", CircuitSpec{Source: "a", Sink: "b", Relays: []netem.NodeID{"nope"}}},
		{"bad policy", CircuitSpec{
			Source: "a", Sink: "b", Relays: []netem.NodeID{"r1"},
			SourceAccess: netem.Symmetric(units.Mbps(10), msec, 0),
			SinkAccess:   netem.Symmetric(units.Mbps(10), msec, 0),
			Transport:    TransportOptions{Policy: "warp-drive"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := n.BuildCircuit(c.spec); err == nil {
				t.Fatal("BuildCircuit accepted invalid spec")
			}
		})
	}
}

func TestAddRelayDuplicate(t *testing.T) {
	n := NewNetwork(1)
	if _, err := n.AddRelay("r1", netem.Symmetric(units.Mbps(10), msec, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRelay("r1", netem.Symmetric(units.Mbps(10), msec, 0)); err == nil {
		t.Fatal("duplicate AddRelay accepted")
	}
}

func TestAutoCircuitIDs(t *testing.T) {
	n := NewNetwork(1)
	n.MustAddRelay("r1", netem.Symmetric(units.Mbps(10), msec, 0))
	mk := func(src, snk netem.NodeID) *Circuit {
		return n.MustBuildCircuit(CircuitSpec{
			Source: src, Sink: snk,
			SourceAccess: netem.Symmetric(units.Mbps(10), msec, 0),
			SinkAccess:   netem.Symmetric(units.Mbps(10), msec, 0),
			Relays:       []netem.NodeID{"r1"},
		})
	}
	a := mk("c1", "s1")
	b := mk("c2", "s2")
	if a.ID() == 0 || b.ID() == 0 || a.ID() == b.ID() {
		t.Fatalf("auto IDs = %d, %d", a.ID(), b.ID())
	}
}

func TestTransferDeliversAllBytes(t *testing.T) {
	_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
	n := c.srcNet

	size := 200 * units.Kilobyte
	var got time.Duration
	c.Transfer(size, func(ttlb time.Duration) { got = ttlb })
	n.RunUntil(30 * sim.Second)

	if !c.Done() {
		t.Fatalf("transfer incomplete: sink received %v of %v", c.Sink().Received(), size)
	}
	if c.Sink().Received() != size {
		t.Fatalf("received %v, want %v", c.Sink().Received(), size)
	}
	if c.Sink().BadCells() != 0 {
		t.Fatalf("%d cells failed onion decryption", c.Sink().BadCells())
	}
	ttlb, ok := c.TTLB()
	if !ok || ttlb != got || ttlb <= 0 {
		t.Fatalf("TTLB = %v, %v (callback %v)", ttlb, ok, got)
	}
	// The analytic lower bound must hold.
	lb := c.ModelPath().LowerBoundTTLB(cellsFor(size))
	if ttlb < lb {
		t.Fatalf("TTLB %v below analytic lower bound %v", ttlb, lb)
	}
}

func cellsFor(size units.DataSize) int {
	// endpoint.CellsFor is not imported to keep the test self-contained.
	per := int64(496) // cell.MaxRelayData
	return int((size.Bytes() + per - 1) / per)
}

func TestCircuitStartConvergesOntoModelWindow(t *testing.T) {
	for _, tc := range []struct {
		name       string
		bottleneck int
	}{
		{"bottleneck-1-hop", 0},
		{"bottleneck-3-hops", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := threeHopNet(t, tc.bottleneck, units.Mbps(8), units.Mbps(100), TransportOptions{})
			n := c.srcNet
			c.Transfer(2*units.Megabyte, nil)
			n.RunUntil(3 * sim.Second)

			opt := c.ModelPath().OptimalSourceWindowCells()
			tr := c.SourceTrace()
			if tr == nil || tr.Len() == 0 {
				t.Fatal("no cwnd trace")
			}
			// After the ramp the window must sit near the optimal: within
			// ±50% for the rest of the run (the paper's panels show exact
			// convergence; we allow tolerance for discretization).
			settle, ok := tr.SettleTime(opt, opt*0.5)
			if !ok {
				last, _ := tr.Last()
				t.Fatalf("cwnd never settled near optimal %.1f (last=%v)", opt, last.Value)
			}
			if settle > 2*sim.Second {
				t.Fatalf("settled only at %v", settle)
			}
		})
	}
}

func TestBackpropagationOfBottleneckWindow(t *testing.T) {
	// With the bottleneck at the last relay, every upstream sender's
	// window should converge to roughly the same (bottleneck) value:
	// "this continues until the source is reached".
	_, c := threeHopNet(t, 2, units.Mbps(8), units.Mbps(100), TransportOptions{})
	n := c.srcNet
	c.Transfer(2*units.Megabyte, nil)
	n.RunUntil(3 * sim.Second)

	opt := c.ModelPath().OptimalSourceWindowCells()
	src := c.SourceSender().Cwnd()
	if src > 3*opt {
		t.Fatalf("source cwnd %v far above optimal %v — no back-propagation", src, opt)
	}
	for i := 0; i < 2; i++ {
		rw := c.RelaySender(i).Cwnd()
		if rw > 4*opt {
			t.Errorf("relay %d cwnd %v far above optimal %v", i, rw, opt)
		}
	}
}

func TestTracesRecordedOnlyWhenRequested(t *testing.T) {
	n := NewNetwork(7)
	n.MustAddRelay("r1", netem.Symmetric(units.Mbps(10), msec, 0))
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "c", Sink: "s",
		SourceAccess: netem.Symmetric(units.Mbps(10), msec, 0),
		SinkAccess:   netem.Symmetric(units.Mbps(10), msec, 0),
		Relays:       []netem.NodeID{"r1"},
	})
	if c.SourceTrace() != nil || c.RelayTrace(0) != nil {
		t.Fatal("traces present without TraceCwnd")
	}
}

func TestFixedWindowBaseline(t *testing.T) {
	_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{
		Policy: "fixed", FixedWindow: 10,
	})
	n := c.srcNet
	c.Transfer(100*units.Kilobyte, nil)
	n.RunUntil(30 * sim.Second)
	if !c.Done() {
		t.Fatal("fixed-window transfer incomplete")
	}
	if w := c.SourceSender().Cwnd(); w != 10 {
		t.Fatalf("fixed window drifted to %v", w)
	}
	if c.SourceSender().Phase() != transport.PhaseStartup {
		t.Fatalf("fixed window left startup: %v", c.SourceSender().Phase())
	}
}

func TestCircuitStartBeatsPlainBackTap(t *testing.T) {
	// The paper's headline comparison ("with CircuitStart" vs "without
	// CircuitStart" = plain BackTap): same network, same transfer, policy
	// swapped. Plain BackTap has no ramp-up at all — Vegas grows the
	// window by one cell per RTT — so on a transfer where the ramp
	// matters (bottleneck fast enough that the drain itself is short),
	// CircuitStart must finish clearly earlier.
	run := func(policy string) time.Duration {
		_, c := threeHopNet(t, 2, units.Mbps(16), units.Mbps(100), TransportOptions{Policy: policy})
		c.Transfer(300*units.Kilobyte, nil)
		c.srcNet.RunUntil(60 * sim.Second)
		if !c.Done() {
			t.Fatalf("%s transfer incomplete", policy)
		}
		ttlb, _ := c.TTLB()
		return ttlb
	}
	cs := run("circuitstart")
	bt := run("backtap")
	if cs >= bt {
		t.Fatalf("CircuitStart %v not faster than plain BackTap %v", cs, bt)
	}
}

func TestCircuitStartLessAggressiveThanClassicSlowStart(t *testing.T) {
	// Classic ACK-clocked slow start can be fast on an idle path, but it
	// is aggressive: it drives the window far beyond the optimal before
	// reacting ("the cwnd can still massively 'overshoot', especially if
	// the bottleneck is distant from the source"). CircuitStart's peak
	// overshoot must be no worse, and its post-exit window must land
	// near the optimal rather than at an arbitrary halving point.
	peak := func(policy string) (overshoot, exitErr float64) {
		_, c := threeHopNet(t, 2, units.Mbps(6), units.Mbps(100), TransportOptions{Policy: policy})
		c.Transfer(2*units.Megabyte, nil)
		c.srcNet.RunUntil(2 * sim.Second)
		opt := c.ModelPath().OptimalSourceWindowCells()
		st := c.SourceSender().Stats()
		// Compare ramp-phase aggressiveness: the window peak up to the
		// startup exit (later avoidance probing is deliberate and
		// bounded, not part of the ramp under comparison).
		var peakCells float64
		for _, p := range c.SourceTrace().Points() {
			if p.At > st.ExitTime {
				break
			}
			if p.Value > peakCells {
				peakCells = p.Value
			}
		}
		return peakCells - opt, st.ExitCwnd/opt - 1
	}
	csOver, csErr := peak("circuitstart")
	ssOver, _ := peak("slowstart")
	if csOver > ssOver {
		t.Errorf("CircuitStart overshoot %v worse than classic %v", csOver, ssOver)
	}
	if csErr < -0.6 || csErr > 1.0 {
		t.Errorf("CircuitStart exit window off optimal by %+.0f%%", csErr*100)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (time.Duration, float64) {
		_, c := threeHopNet(t, 1, units.Mbps(8), units.Mbps(100), TransportOptions{})
		c.Transfer(300*units.Kilobyte, nil)
		c.srcNet.RunUntil(30 * sim.Second)
		ttlb, ok := c.TTLB()
		if !ok {
			t.Fatal("incomplete")
		}
		return ttlb, c.SourceSender().Cwnd()
	}
	t1, w1 := run()
	t2, w2 := run()
	if t1 != t2 || w1 != w2 {
		t.Fatalf("non-deterministic: (%v, %v) vs (%v, %v)", t1, w1, t2, w2)
	}
}

func TestConcurrentCircuitsShareRelays(t *testing.T) {
	n := NewNetwork(11)
	relays := []netem.NodeID{"r1", "r2", "r3"}
	for _, id := range relays {
		n.MustAddRelay(id, netem.Symmetric(units.Mbps(20), 5*msec, 0))
	}
	const k = 5
	circuits := make([]*Circuit, k)
	for i := 0; i < k; i++ {
		circuits[i] = n.MustBuildCircuit(CircuitSpec{
			Source:       netem.NodeID("client-" + string(rune('a'+i))),
			Sink:         netem.NodeID("server-" + string(rune('a'+i))),
			SourceAccess: netem.Symmetric(units.Mbps(50), 5*msec, 0),
			SinkAccess:   netem.Symmetric(units.Mbps(50), 5*msec, 0),
			Relays:       relays,
		})
	}
	for _, c := range circuits {
		c.Transfer(100*units.Kilobyte, nil)
	}
	n.RunUntil(60 * sim.Second)
	for i, c := range circuits {
		if !c.Done() {
			t.Errorf("circuit %d incomplete: %v received", i, c.Sink().Received())
		}
	}
}

func TestTransferPanicsOnNonPositiveSize(t *testing.T) {
	_, c := threeHopNet(t, 0, units.Mbps(8), units.Mbps(100), TransportOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Transfer(0, nil)
}
