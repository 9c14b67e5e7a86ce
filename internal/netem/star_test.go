package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestStarEndToEndDelivery(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	got := &sink{clock: clock}
	star.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	pb := star.Attach("b", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), got, nil)
	_ = pb

	pa := star.Port("a")
	if !pa.Send("b", 512, "hello") {
		t.Fatal("Send rejected")
	}
	clock.Run()
	if len(got.frames) != 1 {
		t.Fatalf("b received %d frames, want 1", len(got.frames))
	}
	f := got.frames[0]
	if f.Src != "a" || f.Dst != "b" || f.Payload != "hello" {
		t.Errorf("frame = %+v", f)
	}
	// Latency: 2 serializations (512B @10Mbit/s = 409.6→410µs... exact:
	// 4096/1e7 s = 409.6µs, rounded up per serialization) + 2×5ms.
	ser := units.Mbps(10).TransmissionTime(512)
	want := sim.Time(2*ser + 10*time.Millisecond)
	if got.times[0] != want {
		t.Errorf("arrival at %v, want %v", got.times[0], want)
	}
}

func TestStarBidirectional(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	sa := &sink{clock: clock}
	sb := &sink{clock: clock}
	pa := star.Attach("a", Symmetric(units.Mbps(10), time.Millisecond, 0), sa, nil)
	pb := star.Attach("b", Symmetric(units.Mbps(10), time.Millisecond, 0), sb, nil)
	pa.Send("b", 512, 1)
	pb.Send("a", 512, 2)
	clock.Run()
	if len(sb.frames) != 1 || len(sa.frames) != 1 {
		t.Fatalf("a got %d, b got %d; want 1 each", len(sa.frames), len(sb.frames))
	}
}

func TestStarUnknownDestination(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	pa := star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	pa.Send("ghost", 512, nil)
	clock.Run()
	if star.UnknownDst() != 1 {
		t.Errorf("UnknownDst = %d, want 1", star.UnknownDst())
	}
}

func TestStarDuplicateAttachPanics(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
}

func TestStarNodesSorted(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	for _, id := range []NodeID{"zeta", "alpha", "mid"} {
		star.Attach(id, Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	}
	got := star.Nodes()
	want := []NodeID{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestStarAsymmetricBottleneck(t *testing.T) {
	// a has a fast uplink; b has a slow downlink. The b downlink
	// bounds throughput a→b.
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	got := &sink{clock: clock}
	star.Attach("a", Symmetric(units.Mbps(100), time.Millisecond, 0), &sink{clock: clock}, nil)
	star.Attach("b", AccessConfig{
		UpRate: units.Mbps(100), DownRate: units.Mbps(2),
		Delay: time.Millisecond,
	}, got, nil)
	const n = 200
	pa := star.Port("a")
	for i := 0; i < n; i++ {
		pa.Send("b", 512, i)
	}
	end := clock.Run()
	if len(got.frames) != n {
		t.Fatalf("delivered %d", len(got.frames))
	}
	rate := units.RateFromTransfer(n*512, end.Duration())
	if r := rate.Mbit(); r > 2.05 {
		t.Errorf("achieved %.2f Mbit/s through a 2 Mbit/s bottleneck", r)
	}
}

func TestPathRTTAndOneWay(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	star.Attach("a", Symmetric(units.Mbps(8), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	star.Attach("b", Symmetric(units.Mbps(8), 7*time.Millisecond, 0), &sink{clock: clock}, nil)
	ser := units.Mbps(8).TransmissionTime(512) // 512µs
	oneWay := star.PathOneWay("a", "b", 512)
	if want := 2*ser + 12*time.Millisecond; oneWay != want {
		t.Errorf("PathOneWay = %v, want %v", oneWay, want)
	}
	rtt := star.PathRTT("a", "b", 512)
	if want := 4*ser + 24*time.Millisecond; rtt != want {
		t.Errorf("PathRTT = %v, want %v", rtt, want)
	}
	// RTT must equal the measured echo time: a→b then b→a.
	gotA := &sink{clock: clock}
	echoB := star.Port("b")
	// Rewire b's handler is not possible (fixed at attach); instead
	// verify analytically against two one-way latencies.
	if rtt != star.PathOneWay("a", "b", 512)+star.PathOneWay("b", "a", 512) {
		t.Error("RTT != sum of one-way latencies")
	}
	_ = gotA
	_ = echoB
}

func TestBottleneckRate(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	mk := func(id NodeID, up, down float64) {
		star.Attach(id, AccessConfig{UpRate: units.Mbps(up), DownRate: units.Mbps(down), Delay: time.Millisecond}, &sink{clock: clock}, nil)
	}
	mk("c", 50, 50)
	mk("r1", 100, 100)
	mk("r2", 8, 100) // slow uplink — the bottleneck
	mk("r3", 100, 100)
	mk("s", 100, 100)
	got := star.BottleneckRate([]NodeID{"c", "r1", "r2", "r3", "s"})
	if got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want 8Mbit/s", got)
	}
}

func TestBottleneckRatePanicsOnShortPath(t *testing.T) {
	star := NewStarFabric(sim.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("no panic on single-node path")
		}
	}()
	star.BottleneckRate([]NodeID{"only"})
}

func TestStarAttachValidation(t *testing.T) {
	star := NewStarFabric(sim.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	star.Attach("x", Symmetric(units.Mbps(1), 0, 0), nil, nil)
}
