package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// twoSwitchFabric builds west—east with one trunk and two nodes homed
// on opposite sides.
func twoSwitchFabric(clock *sim.Clock, trunk TrunkConfig) (*GraphFabric, *sink, *sink) {
	g := NewGraphFabric(clock)
	g.AddSwitch("west")
	g.AddSwitch("east")
	g.AddTrunk("west", "east", trunk, nil)
	g.AssignHome("a", "west")
	g.AssignHome("b", "east")
	sa, sb := &sink{clock: clock}, &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), sa, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), sb, nil)
	return g, sa, sb
}

func TestGraphRoutedDelivery(t *testing.T) {
	clock := sim.NewClock()
	g, _, sb := twoSwitchFabric(clock, SymmetricTrunk(units.Mbps(100), 3*time.Millisecond, 0))
	if !g.Port("a").Send("b", 512, "hello") {
		t.Fatal("Send rejected")
	}
	clock.Run()
	if len(sb.frames) != 1 {
		t.Fatalf("b received %d frames, want 1", len(sb.frames))
	}
	if f := sb.frames[0]; f.Src != "a" || f.Dst != "b" || f.Payload != "hello" {
		t.Errorf("frame = %+v", f)
	}
	// Latency = uplink ser + 5ms + trunk ser + 3ms + downlink ser + 5ms,
	// exactly the analytic PathOneWay.
	want := sim.Time(g.PathOneWay("a", "b", 512))
	if sb.times[0] != want {
		t.Errorf("arrival at %v, want %v", sb.times[0], want)
	}
	// The trunk saw the frame; the reverse direction did not.
	if st := g.Trunk("west", "east").Stats(); st.CellsDelivered != 1 {
		t.Errorf("west>east delivered %d, want 1", st.CellsDelivered)
	}
	if st := g.Trunk("east", "west").Stats(); st.CellsDelivered != 0 {
		t.Errorf("east>west delivered %d, want 0", st.CellsDelivered)
	}
}

func TestGraphSingleSwitchMatchesStar(t *testing.T) {
	// A one-switch graph is the star: same attach sequence, same frames,
	// identical delivery times.
	starClock, graphClock := sim.NewClock(), sim.NewClock()
	star := NewStarFabric(starClock)
	graph := NewGraphFabric(graphClock)
	graph.AddSwitch("hub")

	starSinks := map[NodeID]*sink{}
	graphSinks := map[NodeID]*sink{}
	cfgs := map[NodeID]AccessConfig{
		"a": Symmetric(units.Mbps(10), 2*time.Millisecond, 0),
		"b": {UpRate: units.Mbps(100), DownRate: units.Mbps(2), Delay: time.Millisecond},
		"c": Symmetric(units.Mbps(50), 0, 0),
	}
	for _, id := range []NodeID{"a", "b", "c"} {
		starSinks[id] = &sink{clock: starClock}
		graphSinks[id] = &sink{clock: graphClock}
		star.Attach(id, cfgs[id], starSinks[id], nil)
		graph.Attach(id, cfgs[id], graphSinks[id], nil)
	}
	send := func(f Fabric, src, dst NodeID, n int) {
		for i := 0; i < n; i++ {
			f.Port(src).Send(dst, 512, i)
		}
		f.Port(src).SendPriority(dst, 24, "ctrl")
	}
	for _, pair := range [][2]NodeID{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		send(star, pair[0], pair[1], 5)
		send(graph, pair[0], pair[1], 5)
	}
	starClock.Run()
	graphClock.Run()
	for _, id := range []NodeID{"a", "b", "c"} {
		ss, gs := starSinks[id], graphSinks[id]
		if len(ss.frames) != len(gs.frames) {
			t.Fatalf("node %s: star %d frames, graph %d", id, len(ss.frames), len(gs.frames))
		}
		for i := range ss.frames {
			if ss.times[i] != gs.times[i] || ss.frames[i].Payload != gs.frames[i].Payload {
				t.Fatalf("node %s frame %d: star (%v, %v) vs graph (%v, %v)",
					id, i, ss.times[i], ss.frames[i].Payload, gs.times[i], gs.frames[i].Payload)
			}
		}
	}
}

func TestGraphPriorityAcrossMultiHopRoute(t *testing.T) {
	// Three switches in a line; a slow middle trunk builds a queue the
	// priority frame must jump at an interior hop, not just at the edge.
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	for _, id := range []SwitchID{"s1", "s2", "s3"} {
		g.AddSwitch(id)
	}
	g.AddTrunk("s1", "s2", SymmetricTrunk(units.Mbps(100), time.Millisecond, 0), nil)
	g.AddTrunk("s2", "s3", SymmetricTrunk(units.Mbps(1), time.Millisecond, 0), nil)
	g.AssignHome("a", "s1")
	g.AssignHome("b", "s3")
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 0, 0), col, nil)

	pa := g.Port("a")
	for i := 0; i < 3; i++ {
		pa.Send("b", 500, i)
	}
	pa.SendPriority("b", 24, "ctrl")
	clock.Run()

	if len(col.frames) != 4 {
		t.Fatalf("delivered %d frames", len(col.frames))
	}
	// The fast edge links drain instantly; the 1 Mbit/s s2>s3 trunk is
	// where the bulk frames queue, and the control frame must overtake
	// all but the frame already serializing there.
	if col.frames[1].Payload != "ctrl" {
		t.Fatalf("order: %v, %v, %v, %v", col.frames[0].Payload,
			col.frames[1].Payload, col.frames[2].Payload, col.frames[3].Payload)
	}
	if !col.frames[1].Priority {
		t.Fatal("priority bit lost crossing the routed backbone")
	}
	if st := g.Trunk("s2", "s3").Stats(); st.MaxQueueLen < 2 {
		t.Errorf("bottleneck trunk MaxQueueLen = %d, want ≥ 2", st.MaxQueueLen)
	}
}

func TestGraphRandomLossOnTrunkRoute(t *testing.T) {
	// Certain loss on the middle trunk: every frame vanishes there and
	// is accounted as RandomLoss on exactly that link.
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	g.AddSwitch("s1")
	g.AddSwitch("s2")
	rng := sim.NewRNG(1, "trunk-loss")
	g.AddTrunk("s1", "s2", TrunkConfig{Rate: units.Mbps(10), LossProb: 1}, rng)
	g.AssignHome("a", "s1")
	g.AssignHome("b", "s2")
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), col, nil)

	const n = 10
	for i := 0; i < n; i++ {
		g.Port("a").Send("b", 512, i)
	}
	clock.Run()
	if len(col.frames) != 0 {
		t.Fatalf("delivered %d frames through a fully lossy trunk", len(col.frames))
	}
	st := g.Trunk("s1", "s2").Stats()
	if st.RandomLoss != n {
		t.Errorf("trunk RandomLoss = %d, want %d", st.RandomLoss, n)
	}
	if up := g.Port("a").Uplink().Stats(); up.CellsDelivered != n {
		t.Errorf("uplink delivered %d, want %d (loss must happen on the trunk)", up.CellsDelivered, n)
	}
}

func TestGraphDeterministicTieBreak(t *testing.T) {
	// Diamond: hub—{left,right}—far with identical trunks. Both routes
	// cost the same; the lexicographically smaller next hop ("left")
	// must carry the traffic, deterministically.
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	for _, id := range []SwitchID{"hub", "left", "right", "far"} {
		g.AddSwitch(id)
	}
	cfg := SymmetricTrunk(units.Mbps(100), time.Millisecond, 0)
	g.AddTrunk("hub", "left", cfg, nil)
	g.AddTrunk("hub", "right", cfg, nil)
	g.AddTrunk("left", "far", cfg, nil)
	g.AddTrunk("right", "far", cfg, nil)
	g.AssignHome("a", "hub")
	g.AssignHome("b", "far")
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 0, 0), col, nil)

	for i := 0; i < 4; i++ {
		g.Port("a").Send("b", 512, i)
	}
	clock.Run()
	if len(col.frames) != 4 {
		t.Fatalf("delivered %d", len(col.frames))
	}
	if st := g.Trunk("hub", "left").Stats(); st.CellsDelivered != 4 {
		t.Errorf("left route delivered %d, want 4", st.CellsDelivered)
	}
	if st := g.Trunk("hub", "right").Stats(); st.Enqueued != 0 {
		t.Errorf("right route saw %d frames, want 0", st.Enqueued)
	}
}

func TestGraphTieBreakSurvivesLateEqualCostPath(t *testing.T) {
	// Two equal-cost, equal-hop routes hub→b (via a,z: 1+4+0 ms; via
	// c,d: 2+2+1 ms). The "a" first hop is lexicographically smaller
	// and must win for b AND for e behind it — even though Dijkstra
	// settles b along the "c" route first and discovers the "a" route
	// later. Regression: relaxing an already-visited switch used to
	// flip b's tie-break after e had inherited the old one.
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	for _, id := range []SwitchID{"hub", "a", "z", "b", "c", "d", "e"} {
		g.AddSwitch(id)
	}
	ms := func(n int) TrunkConfig {
		return SymmetricTrunk(units.Mbps(100), time.Duration(n)*time.Millisecond, 0)
	}
	g.AddTrunk("hub", "a", ms(1), nil)
	g.AddTrunk("a", "z", ms(4), nil)
	g.AddTrunk("z", "b", ms(0), nil)
	g.AddTrunk("hub", "c", ms(2), nil)
	g.AddTrunk("c", "d", ms(2), nil)
	g.AddTrunk("d", "b", ms(1), nil)
	g.AddTrunk("b", "e", ms(1), nil)
	g.AssignHome("src", "hub")
	g.AssignHome("dstB", "b")
	g.AssignHome("dstE", "e")
	for _, id := range []NodeID{"src", "dstB", "dstE"} {
		g.Attach(id, Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	}
	g.Port("src").Send("dstB", 512, nil)
	g.Port("src").Send("dstE", 512, nil)
	clock.Run()
	if st := g.Trunk("hub", "a").Stats(); st.CellsDelivered != 2 {
		t.Errorf("hub>a carried %d frames, want 2 (lexicographic tie-break)", st.CellsDelivered)
	}
	if st := g.Trunk("hub", "c").Stats(); st.Enqueued != 0 {
		t.Errorf("hub>c carried %d frames, want 0", st.Enqueued)
	}
	// The analytic transit path agrees with the routed one.
	if ts := g.PathTransits("src", "dstE"); len(ts) != 4 || ts[0].Name() != "trunk:hub>a" {
		names := make([]string, len(ts))
		for i, l := range ts {
			names[i] = l.Name()
		}
		t.Errorf("PathTransits route = %v", names)
	}
}

func TestGraphUnknownAndUnroutable(t *testing.T) {
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	g.AddSwitch("s1")
	g.AddSwitch("island") // no trunk: disconnected
	g.AssignHome("a", "s1")
	g.AssignHome("b", "island")
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)

	g.Port("a").Send("ghost", 512, nil)
	g.Port("a").Send("b", 512, nil)
	clock.Run()
	if g.UnknownDst() != 1 {
		t.Errorf("UnknownDst = %d, want 1", g.UnknownDst())
	}
	if g.Unroutable() != 1 {
		t.Errorf("Unroutable = %d, want 1", g.Unroutable())
	}
}

func TestGraphStatsResetCleanly(t *testing.T) {
	clock := sim.NewClock()
	g, _, sb := twoSwitchFabric(clock, SymmetricTrunk(units.Mbps(1), time.Millisecond, 0))
	for i := 0; i < 5; i++ {
		g.Port("a").Send("b", 500, i)
	}
	g.Port("a").Send("ghost", 500, nil)
	clock.Run()
	if len(sb.frames) != 5 {
		t.Fatalf("delivered %d", len(sb.frames))
	}
	st := g.Trunk("west", "east").Stats()
	if st.MaxQueueLen == 0 || st.QueueDelay == 0 {
		t.Fatalf("expected trunk queueing, got %+v", st)
	}

	g.ResetStats()
	if g.UnknownDst() != 0 || g.Unroutable() != 0 {
		t.Error("drop counters survived ResetStats")
	}
	for _, l := range g.Trunks() {
		if l.Stats() != (LinkStats{}) {
			t.Errorf("trunk %s stats survived reset: %+v", l.Name(), l.Stats())
		}
	}
	if up := g.Port("a").Uplink().Stats(); up != (LinkStats{}) {
		t.Errorf("access stats survived reset: %+v", up)
	}
	// The fabric still routes after a reset.
	g.Port("a").Send("b", 500, "again")
	clock.Run()
	if g.Trunk("west", "east").Stats().CellsDelivered != 1 {
		t.Error("delivery after reset not accounted from zero")
	}
}

func TestGraphAnalyticPaths(t *testing.T) {
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	for _, id := range []SwitchID{"s1", "s2", "s3"} {
		g.AddSwitch(id)
	}
	g.AddTrunk("s1", "s2", SymmetricTrunk(units.Mbps(8), 3*time.Millisecond, 0), nil)
	g.AddTrunk("s2", "s3", SymmetricTrunk(units.Mbps(50), 2*time.Millisecond, 0), nil)
	g.AssignHome("a", "s1")
	g.AssignHome("b", "s3")
	g.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 7*time.Millisecond, 0), &sink{clock: clock}, nil)

	ser := func(mbps float64) time.Duration { return units.Mbps(mbps).TransmissionTime(512) }
	want := ser(10) + 5*time.Millisecond + // a's uplink
		ser(8) + 3*time.Millisecond + // s1>s2
		ser(50) + 2*time.Millisecond + // s2>s3
		ser(100) + 7*time.Millisecond // b's downlink
	if got := g.PathOneWay("a", "b", 512); got != want {
		t.Errorf("PathOneWay = %v, want %v", got, want)
	}
	if rtt := g.PathRTT("a", "b", 512); rtt != g.PathOneWay("a", "b", 512)+g.PathOneWay("b", "a", 512) {
		t.Error("RTT != sum of one-way latencies")
	}
	if got := g.BottleneckRate([]NodeID{"a", "b"}); got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want 8 Mbit/s (the s1>s2 trunk)", got)
	}
}

func TestGraphHomeDefaultIsDeterministic(t *testing.T) {
	build := func() *GraphFabric {
		g := NewGraphFabric(sim.NewClock())
		g.AddSwitch("s1")
		g.AddSwitch("s2")
		g.AddSwitch("s3")
		g.AddTrunk("s1", "s2", SymmetricTrunk(units.Mbps(10), 0, 0), nil)
		g.AddTrunk("s2", "s3", SymmetricTrunk(units.Mbps(10), 0, 0), nil)
		return g
	}
	g1, g2 := build(), build()
	spread := map[SwitchID]int{}
	for i := 0; i < 64; i++ {
		id := NodeID(rune('a'+i%26)) + NodeID(rune('0'+i/26))
		if g1.Home(id) != g2.Home(id) {
			t.Fatalf("node %q homes differ across identical fabrics", id)
		}
		spread[g1.Home(id)]++
	}
	if len(spread) < 2 {
		t.Errorf("hash homing used %d of 3 switches", len(spread))
	}
}

func TestGraphSpecValidate(t *testing.T) {
	trunk := SymmetricTrunk(units.Mbps(10), 0, 0)
	cases := []struct {
		name string
		spec GraphSpec
	}{
		{"no switches", GraphSpec{}},
		{"duplicate switch", GraphSpec{Switches: []SwitchID{"a", "a"}}},
		{"self-loop trunk", GraphSpec{Switches: []SwitchID{"a"}, Trunks: []TrunkSpec{{A: "a", B: "a", Config: trunk}}}},
		{"unknown trunk endpoint", GraphSpec{Switches: []SwitchID{"a"}, Trunks: []TrunkSpec{{A: "a", B: "ghost", Config: trunk}}}},
		{"duplicate trunk", GraphSpec{Switches: []SwitchID{"a", "b"},
			Trunks: []TrunkSpec{{A: "a", B: "b", Config: trunk}, {A: "b", B: "a", Config: trunk}}}},
		{"bad rate", GraphSpec{Switches: []SwitchID{"a", "b"}, Trunks: []TrunkSpec{{A: "a", B: "b"}}}},
		{"bad loss", GraphSpec{Switches: []SwitchID{"a", "b"},
			Trunks: []TrunkSpec{{A: "a", B: "b", Config: TrunkConfig{Rate: 1, LossProb: 2}}}}},
		{"home to unknown switch", GraphSpec{Switches: []SwitchID{"a"},
			Homes: map[NodeID]SwitchID{"n": "ghost"}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	ok := GraphSpec{
		Switches: []SwitchID{"a", "b"},
		Trunks:   []TrunkSpec{{A: "a", B: "b", Config: trunk}},
		Homes:    map[NodeID]SwitchID{"n": "a"},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if !ok.HasTrunk("b", "a") || ok.HasTrunk("a", "ghost") {
		t.Error("HasTrunk broken")
	}
}

func TestGraphSpecBuild(t *testing.T) {
	clock := sim.NewClock()
	spec := GraphSpec{
		Switches: []SwitchID{"s1", "s2"},
		Trunks:   []TrunkSpec{{A: "s1", B: "s2", Config: SymmetricTrunk(units.Mbps(10), time.Millisecond, 0)}},
		Homes:    map[NodeID]SwitchID{"a": "s1", "b": "s2"},
	}
	g := spec.Build(clock, nil)
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), col, nil)
	g.Port("a").Send("b", 512, "x")
	clock.Run()
	if len(col.frames) != 1 {
		t.Fatal("spec-built fabric did not deliver")
	}
	if got := len(g.Trunks()); got != 2 {
		t.Fatalf("%d directed trunks, want 2", got)
	}
}

func TestGraphBuildPhasePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	clock := sim.NewClock()
	g := NewGraphFabric(clock)
	g.AddSwitch("s1")
	expectPanic("duplicate switch", func() { g.AddSwitch("s1") })
	expectPanic("self-loop", func() { g.AddTrunk("s1", "s1", SymmetricTrunk(1, 0, 0), nil) })
	expectPanic("unknown trunk switch", func() { g.AddTrunk("s1", "ghost", SymmetricTrunk(1, 0, 0), nil) })
	expectPanic("home to unknown switch", func() { g.AssignHome("n", "ghost") })
	g.Attach("n", Symmetric(units.Mbps(1), 0, 0), &sink{clock: clock}, nil)
	expectPanic("switch after freeze", func() { g.AddSwitch("s2") })
	expectPanic("trunk after freeze", func() { g.AddTrunk("s1", "s2", SymmetricTrunk(1, 0, 0), nil) })
	expectPanic("duplicate attach", func() {
		g.Attach("n", Symmetric(units.Mbps(1), 0, 0), &sink{clock: clock}, nil)
	})
	expectPanic("home after attach", func() { g.AssignHome("n", "s1") })
}
