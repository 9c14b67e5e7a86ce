package main

import (
	"errors"
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// A composed trial rebuilds one replication-0 trial of a generated
// scenario from the public constructors (core.NewNetworkInArena,
// AddRelay, BuildCircuit), mirroring workload.Build and the static
// engine's transfer starts step for step, so that the harness can own
// the FabricBuilder and time every node's handler. Its outcomes must
// equal the Runner's for the same trial; the workloads check that.

// trialPlan is the data a composed trial is built from.
type trialPlan struct {
	seed    int64
	params  workload.ScenarioParams
	sizes   []units.DataSize // per-circuit sizes; nil = params.TransferSize
	arrival scenario.Arrival
	horizon sim.Time
}

// planFor renders replication 0 of one arm of a generated, churn-free
// scenario into a trialPlan, filling the defaults scenario validation
// fills.
func planFor(sc scenario.Scenario, arm scenario.Arm) (trialPlan, error) {
	if sc.Topology.Population == nil {
		return trialPlan{}, fmt.Errorf("compose: scenario %q has no generated population", sc.Name)
	}
	cs := sc.Circuits
	hops := cs.Hops
	if hops == 0 {
		hops = 3
	}
	p := trialPlan{seed: sc.Seed, arrival: cs.Arrival, horizon: sc.Horizon, sizes: cs.SizeMix}
	size := cs.TransferSize
	if d := cs.SizeDist; d != nil {
		if d.Kind == workload.SizeFixed {
			size = d.Size
		} else {
			mix, err := d.Sample(sc.Seed, cs.Count)
			if err != nil {
				return trialPlan{}, fmt.Errorf("compose: %w", err)
			}
			p.sizes = mix
		}
	}
	if size <= 0 && len(p.sizes) > 0 {
		size = p.sizes[0]
	}
	var spread time.Duration
	if cs.Arrival.Kind == scenario.ArriveUniform {
		spread = cs.Arrival.Spread
	}
	p.params = workload.ScenarioParams{
		Relays:         *sc.Topology.Population,
		Circuits:       cs.Count,
		HopsPerCircuit: hops,
		TransferSize:   size,
		Transport:      arm.Transport,
		ClientAccess:   sc.ClientAccess,
		StartSpread:    spread,
		Download:       cs.Download,
		Fabric:         sc.Topology.Fabric,
		RelayConfig:    arm.Relay,
		TrainSize:      sc.TrainSize,
	}
	return p, nil
}

// outcome is one circuit's simulated result, in the Runner's terms.
type outcome struct {
	TTLB                   time.Duration
	Done, Killed, Rejected bool
}

// outcomesOf extracts replication 0 of an arm from a Runner result.
func outcomesOf(a *scenario.ArmResult) []outcome {
	var out []outcome
	for _, c := range a.Circuits {
		if c.Replication == 0 {
			out = append(out, outcome{TTLB: c.TTLB, Done: c.Done, Killed: c.Killed, Rejected: c.Rejected})
		}
	}
	return out
}

func sameOutcomes(a, b []outcome) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d circuits vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("circuit %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// composedTrial is one executed composed trial with its spans.
type composedTrial struct {
	net       *core.Network
	fab       *timedFabric
	circuits  []*core.Circuit
	outcomes  []outcome
	build     span      // network, relays and circuits
	circuitUS []float64 // each BuildCircuit call, µs
	run       span      // the event loop
	events    uint64    // clock events the run executed
}

// runComposed builds and runs the plan's trial in ar (reset by the
// caller between trials). The FabricBuilder always wraps the fabric in
// a timedFabric, so the traced and the comparison runs take the same
// path.
func runComposed(p trialPlan, ar *arena.Arena) (*composedTrial, error) {
	wp := p.params
	if wp.ClientAccess.UpRate == 0 {
		wp.ClientAccess = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, wp.Relays.QueueCap)
	}
	wp.ClientAccess.TrainSize = wp.TrainSize
	t := &composedTrial{}
	t.build.start = time.Now()

	relays, err := workload.GenerateRelays(p.seed, wp.Relays)
	if err != nil {
		return nil, err
	}
	var spec *netem.GraphSpec
	if wp.Fabric != nil {
		if err := wp.Fabric.Validate(); err != nil {
			return nil, err
		}
		s := wp.Fabric.Clone()
		for i := range s.Trunks {
			s.Trunks[i].Config.TrainSize = wp.TrainSize
		}
		spec = &s
	}
	t.net = core.NewNetworkInArena(ar, p.seed, func(clock *sim.Clock, rng *sim.RNG) netem.Fabric {
		var inner netem.Fabric
		if spec != nil {
			inner = spec.Build(clock, rng)
		} else {
			inner = netem.NewStarFabric(clock)
		}
		t.fab = &timedFabric{Fabric: inner}
		return t.fab
	})
	n := t.net
	if err := n.ConfigureRelays(wp.RelayConfig); err != nil {
		return nil, err
	}
	descs := make([]directory.Descriptor, len(relays))
	for i, r := range relays {
		descs[i] = r.Desc
		r.Access.TrainSize = wp.TrainSize
		if _, err := n.AddRelay(r.Desc.ID, r.Access); err != nil {
			return nil, err
		}
	}
	consensus, err := directory.NewConsensus(descs)
	if err != nil {
		return nil, err
	}
	pathRNG := sim.NewRNG(p.seed, "workload-paths")
	for i := 0; i < wp.Circuits; i++ {
		path, err := consensus.SelectPath(pathRNG, wp.HopsPerCircuit)
		if err != nil {
			return nil, fmt.Errorf("compose: circuit %d: %w", i, err)
		}
		ids := make([]netem.NodeID, len(path))
		for j, d := range path {
			ids[j] = d.ID
		}
		c0 := time.Now()
		c, err := n.BuildCircuit(core.CircuitSpec{
			Source:       netem.NodeID(fmt.Sprintf("client-%03d", i)),
			Sink:         netem.NodeID(fmt.Sprintf("server-%03d", i)),
			SourceAccess: wp.ClientAccess,
			SinkAccess:   wp.ClientAccess,
			Relays:       ids,
			Transport:    wp.Transport,
		})
		t.circuitUS = append(t.circuitUS, float64(time.Since(c0))/float64(time.Microsecond))
		if err != nil && !errors.Is(err, core.ErrCircuitRejected) {
			return nil, fmt.Errorf("compose: circuit %d: %w", i, err)
		}
		t.circuits = append(t.circuits, c) // nil when rejected, as workload.Build keeps it
	}
	t.build.end = time.Now()

	t.startTransfers(p, wp)
	before := n.Clock().Processed()
	t.run.start = time.Now()
	n.RunUntil(p.horizon)
	t.run.end = time.Now()
	t.events = n.Clock().Processed() - before

	for _, c := range t.circuits {
		if c == nil {
			t.outcomes = append(t.outcomes, outcome{Rejected: true})
			continue
		}
		ttlb, done := c.TTLB()
		t.outcomes = append(t.outcomes, outcome{TTLB: ttlb, Done: done, Killed: c.Killed() && !done})
	}
	return t, nil
}

// startTransfers arms every circuit's transfer exactly as the static
// engine does: workload.Scenario.Run's stagger for fixed-size uniform
// or simultaneous starts, the scenario runner's arrival streams once a
// size mix or Poisson arrivals are in play.
func (t *composedTrial) startTransfers(p trialPlan, wp workload.ScenarioParams) {
	n := t.net
	remaining := 0
	for _, c := range t.circuits {
		if c != nil {
			remaining++
		}
	}
	finished := make([]bool, len(t.circuits))
	finish := func(i int) {
		if finished[i] {
			return
		}
		finished[i] = true
		remaining--
		if remaining == 0 {
			n.Clock().Stop()
		}
	}
	idx := make(map[*core.Circuit]int, len(t.circuits))
	for i, c := range t.circuits {
		if c != nil {
			idx[c] = i
		}
	}
	n.OnKill(func(c *core.Circuit) {
		if i, ok := idx[c]; ok {
			finish(i)
		}
	})
	sizeFor := func(i int) units.DataSize {
		if len(p.sizes) > 0 {
			return p.sizes[i%len(p.sizes)]
		}
		return wp.TransferSize
	}
	start := func(i int, c *core.Circuit) func() {
		return func() {
			if c.Closed() {
				finish(i)
				return
			}
			done := func(time.Duration) { finish(i) }
			if wp.Download {
				c.TransferBackward(sizeFor(i), done)
			} else {
				c.Transfer(sizeFor(i), done)
			}
		}
	}

	if p.arrival.Kind != scenario.ArrivePoisson && len(p.sizes) == 0 {
		rng := sim.NewRNG(p.seed, "workload-starts")
		for i, c := range t.circuits {
			var delay time.Duration
			if wp.StartSpread > 0 {
				delay = time.Duration(rng.Int63n(int64(wp.StartSpread)))
			}
			if c != nil {
				n.Clock().After(delay, start(i, c))
			}
		}
		return
	}
	delays := make([]time.Duration, len(t.circuits))
	switch p.arrival.Kind {
	case scenario.ArriveUniform:
		rng := sim.NewRNG(p.seed, "scenario-starts")
		for i := range delays {
			delays[i] = time.Duration(rng.Int63n(int64(p.arrival.Spread)))
		}
	case scenario.ArrivePoisson:
		rng := sim.NewRNG(p.seed, "scenario-arrivals")
		var at time.Duration
		for i := range delays {
			at += time.Duration(rng.Exponential(1/p.arrival.Rate) * float64(time.Second))
			delays[i] = at
		}
	}
	for i, c := range t.circuits {
		if c == nil {
			continue
		}
		if delays[i] == 0 {
			start(i, c)()
		} else {
			n.Clock().After(delays[i], start(i, c))
		}
	}
}

// layerCounts pools the per-layer counters of one trial, read from the
// public accessors of each layer after the run.
type layerCounts struct {
	frames, trains, enqueued   uint64
	queueDelay                 time.Duration
	maxQueue                   int
	tail, loss, down, sched    uint64
	unknownDst, unroutable     uint64
	relayFwd, relayRecog       uint64
	transmitted, retransmitted uint64
	rtos, rounds               uint64
	originCells                uint64 // cells an origin endpoint onion-wrapped
	schedDrops                 uint64
	res                        resource.Stats
}

func (lc *layerCounts) addLink(s netem.LinkStats) {
	lc.frames += s.CellsDelivered
	lc.trains += s.TrainsDelivered
	lc.enqueued += s.Enqueued
	lc.queueDelay += s.QueueDelay
	if s.MaxQueueLen > lc.maxQueue {
		lc.maxQueue = s.MaxQueueLen
	}
	lc.tail += s.TailDrops
	lc.loss += s.RandomLoss
	lc.down += s.DownDrops
	lc.sched += s.SchedDrops
}

func (lc *layerCounts) addSender(s *transport.Sender, origin bool) {
	if s == nil {
		return
	}
	st := s.Stats()
	lc.transmitted += st.Transmitted
	lc.retransmitted += st.Retransmitted
	lc.rtos += st.RTOs
	lc.rounds += st.Rounds
	if origin {
		lc.originCells += st.Transmitted
	}
}

func (lc *layerCounts) addRelay(r *relay.Relay) {
	st := r.Stats()
	lc.relayFwd += st.CellsForwarded
	lc.relayRecog += st.Recognized
}

// countNetwork reads a single-clock network's layer counters.
func countNetwork(n *core.Network, circuits []*core.Circuit) layerCounts {
	var lc layerCounts
	fab := n.Fabric()
	for _, id := range fab.Nodes() {
		p := fab.Port(id)
		lc.addLink(p.Uplink().Stats())
		lc.addLink(p.Downlink().Stats())
		if r := n.Relay(id); r != nil {
			lc.addRelay(r)
		}
	}
	for _, l := range fab.Trunks() {
		lc.addLink(l.Stats())
	}
	lc.unknownDst, lc.unroutable = fab.UnknownDst(), fab.Unroutable()
	for _, c := range circuits {
		if c == nil {
			continue
		}
		lc.addSender(c.SourceSender(), true)
		lc.addSender(c.Sink().BackwardSender(), true)
		for i, id := range c.Relays() {
			lc.addSender(c.RelaySender(i), false)
			lc.addSender(n.Relay(id).BackwardHopSender(c.ID()), false)
		}
	}
	lc.schedDrops = n.SchedDrops()
	lc.res = n.ResourceStats()
	return lc
}
