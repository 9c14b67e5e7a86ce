// Package benchcases holds the bodies of the headline per-layer
// microbenchmarks — clock scheduling, timer rearm, link and star
// transit, onion wrap/unwrap, and the full single-transfer profile.
//
// The bodies live in a normal (non-test) package for one reason: they
// are shared verbatim between the benchmark wrappers in this package's
// test file (which CI gates on allocs/op) and the `circuitsim bench
// -json` subcommand (which snapshots BENCH_<n>.json). A committed
// snapshot therefore measures exactly the code the CI gate guards —
// the two cannot drift apart.
package benchcases

import (
	"testing"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/sched"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// ClockSchedule measures the allocation-free scheduling fast path:
// schedule one event (callback hoisted out of the loop) and drain it.
// CI fails if this reports nonzero allocs/op — the event free list
// must absorb every fired event.
func ClockSchedule(b *testing.B) {
	c := sim.NewClock()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(time.Microsecond, fn)
		c.Run()
	}
	if n != b.N {
		b.Fatalf("executed %d of %d", n, b.N)
	}
}

// TimerRearm measures the rearm pattern the transport RTO uses on
// every acknowledgment. Rescheduling happens in place, so CI fails if
// this allocates.
func TimerRearm(b *testing.B) {
	c := sim.NewClock()
	tm := sim.NewTimer(c, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Arm(time.Millisecond)
	}
	tm.Stop()
	c.Run()
}

// LinkTransit measures one full frame transit — enqueue, serialize,
// propagate, deliver, recycle — through a pooled link. CI fails if this
// reports nonzero allocs/op: the ring buffers, the pre-bound stage
// callbacks, the clock's event free list and the frame pool must
// together make steady-state transit allocation-free.
func LinkTransit(b *testing.B) {
	clock := sim.NewClock()
	delivered := 0
	link := netem.NewLink("bench", clock, netem.LinkConfig{
		Rate: units.Mbps(100), Delay: time.Millisecond,
	}, netem.HandlerFunc(func(f *netem.Frame) { delivered++ }))
	pool := netem.NewFramePool()
	link.UsePool(pool, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pool.Get()
		f.Src, f.Dst, f.Size, f.Priority = "a", "b", 512, false
		link.Send(f)
		clock.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// LinkInflight measures a frame's transit through a pooled link in a
// deep steady state: the propagation delay holds 1,024 serialization
// times, so about 1,024 frames are always in flight while one op sends
// a frame and advances the clock one serialization time, delivering
// one. It reports events/op (one serialization end and one delivery)
// and CI fails if it allocates: however deep the in-flight FIFO, only
// its head's delivery sits on the clock's heap, so the per-frame cost
// must not grow with the number of frames in flight.
func LinkInflight(b *testing.B) {
	const depth = 1024
	rate := units.Mbps(100)
	tx := rate.TransmissionTime(512)
	clock := sim.NewClock()
	delivered := 0
	link := netem.NewLink("bench", clock, netem.LinkConfig{
		Rate: rate, Delay: depth * tx,
	}, netem.HandlerFunc(func(f *netem.Frame) { delivered++ }))
	pool := netem.NewFramePool()
	link.UsePool(pool, true)
	send := func() {
		f := pool.Get()
		f.Src, f.Dst, f.Size, f.Priority = "a", "b", 512, false
		link.Send(f)
		clock.RunUntil(clock.Now().Add(tx))
	}
	// Fill the pipe and grow the rings and the pool to the working set.
	for i := 0; i < 2*depth; i++ {
		send()
	}
	if delivered == 0 || 2*depth-delivered < depth {
		b.Fatalf("warmup delivered %d of %d frames; want about %d in flight", delivered, 2*depth, depth)
	}
	start, before := clock.Processed(), delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if delivered-before != b.N {
		b.Fatalf("delivered %d frames in %d steady-state ops", delivered-before, b.N)
	}
	b.ReportMetric(float64(clock.Processed()-start)/float64(b.N), "events/op")
}

// trainSink is a TrainHandler that counts batched and single deliveries
// without allocating.
type trainSink struct{ cells, trains int }

func (t *trainSink) Deliver(*netem.Frame) { t.cells++ }
func (t *trainSink) DeliverTrain(fs []*netem.Frame) {
	t.cells += len(fs)
	t.trains++
}

// LinkTransitTrain measures the batched counterpart of LinkTransit: a
// burst of back-to-back frames coalesced into cell trains through a
// pooled link (one serialization event and one batched delivery per
// train instead of per cell). CI fails if this reports nonzero
// allocs/op — train formation, the survivor ring and the batched
// delivery scratch must all recycle.
func LinkTransitTrain(b *testing.B) {
	const trainSize = 8
	clock := sim.NewClock()
	sink := &trainSink{}
	link := netem.NewLink("bench", clock, netem.LinkConfig{
		Rate: units.Mbps(100), Delay: time.Millisecond, TrainSize: trainSize,
	}, sink)
	pool := netem.NewFramePool()
	link.UsePool(pool, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The first frame departs alone (the link is idle when it
		// arrives); the rest queue behind it and coalesce.
		for j := 0; j < trainSize; j++ {
			f := pool.Get()
			f.Src, f.Dst, f.Size = "a", "b", 512
			link.Send(f)
		}
		clock.Run()
	}
	if sink.cells != b.N*trainSize {
		b.Fatalf("delivered %d of %d cells", sink.cells, b.N*trainSize)
	}
	if sink.trains == 0 {
		b.Fatal("no batched deliveries — trains never formed")
	}
}

// StarTransit measures a node-to-node frame crossing the star fabric:
// uplink, switch, downlink. Two link transits plus routing.
func StarTransit(b *testing.B) {
	clock := sim.NewClock()
	star := netem.NewStarFabric(clock)
	delivered := 0
	pa := star.Attach("a", netem.Symmetric(units.Mbps(100), time.Millisecond, 0), netem.HandlerFunc(func(f *netem.Frame) {}), nil)
	star.Attach("b", netem.Symmetric(units.Mbps(100), time.Millisecond, 0), netem.HandlerFunc(func(f *netem.Frame) { delivered++ }), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.Send("b", 512, nil)
		clock.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// SchedulerEnqueueDequeue measures the EWMA quiet-circuit scheduler's
// per-frame cost on a relay uplink: one push/pop cycle of 8 competing
// circuits' pooled frames through the cost heap. CI fails if this
// reports nonzero allocs/op — circuit nodes come from the free list and
// the rings and heap grow to the working set once, so steady-state
// scheduling must be allocation-free.
func SchedulerEnqueueDequeue(b *testing.B) {
	clock := sim.NewClock()
	q := sched.NewEWMA(clock, 0)
	pool := netem.NewFramePool()
	const circuits = 8
	frames := make([]*netem.Frame, circuits)
	for i := range frames {
		f := pool.Get()
		f.Src, f.Dst, f.Size = "a", "b", 512
		f.Circ = uint32(i + 1)
		frames[i] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			q.Push(f)
		}
		for j := 0; j < circuits; j++ {
			if q.Pop() == nil {
				b.Fatal("scheduler ran dry")
			}
		}
	}
	if q.Len() != 0 {
		b.Fatalf("%d frames left queued", q.Len())
	}
}

// benchRand is a deterministic byte stream for key generation.
type benchRand struct{ ctr byte }

func (r *benchRand) Read(p []byte) (int, error) {
	for i := range p {
		r.ctr += 31
		p[i] = r.ctr ^ byte(i)
	}
	return len(p), nil
}

// benchCircuit establishes a hops-long circuit's key material.
func benchCircuit(b *testing.B, hops int) (*onion.CircuitCrypto, []*onion.HopKeys) {
	b.Helper()
	rnd := &benchRand{}
	idents := make([]*onion.Identity, hops)
	for i := range idents {
		id, err := onion.NewIdentity(rnd)
		if err != nil {
			b.Fatal(err)
		}
		idents[i] = id
	}
	cc, rk, err := onion.BuildCircuit(rnd, idents)
	if err != nil {
		b.Fatal(err)
	}
	return cc, rk
}

// OnionWrap measures the client-side cost of sealing and
// triple-encrypting one 512 B cell.
func OnionWrap(b *testing.B) {
	cc, _ := benchCircuit(b, 3)
	c := &cell.Cell{}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, make([]byte, cell.MaxRelayData)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(cell.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.WrapForward(c)
	}
}

// OnionUnwrap measures the client-side cost of peeling a 3-hop backward
// cell: per hop one stream decryption and a header parse, plus the
// digest verification at the recognizing hop. The snapshot/rollback
// machinery must keep this allocation-free.
func OnionUnwrap(b *testing.B) {
	cc, relayKeys := benchCircuit(b, 3)
	exit := relayKeys[len(relayKeys)-1]
	c := &cell.Cell{}
	data := make([]byte, cell.MaxRelayData)
	b.SetBytes(cell.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The exit seals and every hop adds its backward layer; the
		// client unwraps. Both running digests advance once per cell, so
		// the pair stays in lockstep across iterations.
		if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, data); err != nil {
			b.Fatal(err)
		}
		exit.SealBackward(c)
		for h := len(relayKeys) - 1; h >= 0; h-- {
			relayKeys[h].EncryptBackward(c)
		}
		if _, err := cc.UnwrapBackward(c); err != nil {
			b.Fatal(err)
		}
	}
}

// SingleTransfer measures raw simulator throughput and its allocation
// profile: one 1 MB transfer over a 3-hop circuit per iteration (an
// engineering metric, not a paper figure). It runs the way experiments
// actually run the hot path — cell trains on every link and the
// population/circuit substrate amortized across transfers the same way
// the parallel runner's per-worker arena amortizes it across trials —
// so the steady-state number is the per-transfer cost, not the
// per-trial setup cost.
func SingleTransfer(b *testing.B) {
	ar := arena.New()
	sc, err := workload.Build(1, workload.ScenarioParams{
		Relays:         workload.DefaultRelayParams(8),
		Circuits:       1,
		HopsPerCircuit: 3,
		TransferSize:   1 * units.Megabyte,
		TrainSize:      8,
		Arena:          ar,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := sc.Network
	c := sc.Circuits[0]
	clock := n.Clock()
	onDone := func(time.Duration) { clock.Stop() }
	// One untimed transfer grows every pool and slab to its working
	// set; without it the first timed iteration's warmup allocations
	// amortize over b.N and the reported allocs/op varies with the
	// iteration count instead of measuring the steady state.
	c.Transfer(1*units.Megabyte, onDone)
	n.Run()
	if !c.Done() {
		b.Fatal("warmup transfer incomplete")
	}
	start := clock.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transfer(1*units.Megabyte, onDone)
		n.Run()
		if !c.Done() {
			b.Fatal("incomplete")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clock.Processed()-start)/float64(b.N), "events/op")
}
