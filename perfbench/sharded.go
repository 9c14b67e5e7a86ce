package main

import (
	"fmt"
	"runtime"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/experiments"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// shards is the shard count of the sharded_ring workload: one per CPU
// of the 2-CPU reference box, so the benchmark never starts more
// simulation goroutines than it has cores.
const shards = 2

// sharded is the sharded_ring workload: one whole-network churn trial
// of the scale ablation (1,024 relays behind a 16-switch ring) on the
// conservative-lookahead engine with two shards. A backtap arm is added
// beside circuitstart so the simulated gain is defined here too.
type sharded struct {
	trialRounds

	// The traced trial is composed from core.NewShardedNetwork and
	// RunWindows with a harness barrier callback: input 0's population
	// and initial circuits, without arrivals.
	seed     int64
	spec     netem.GraphSpec
	pop      workload.RelayParams
	initial  int
	size     units.DataSize
	horizon  sim.Time
	arenas   []*arena.Arena
	plainOut []outcome
	plainMS  float64
	firstMB  float64 // the plain trial's allocation, in fresh arenas
	traced   []shardTrial
}

func newSharded(cfg config, led *ledger) (bench, error) {
	b := &sharded{trialRounds: trialRounds{led: led, what: "sharded"}}
	for k := 0; k < inputCount(cfg, 4); k++ {
		p := experiments.DefaultScaleParams()
		p.Seed = inputSeed(cfg.seed, k)
		if cfg.short {
			p.Relays, p.Switches = 48, 4
			p.InitialCircuits, p.Arrivals = 4, 4
		}
		sc, err := p.Scenario(shards)
		if err != nil {
			return nil, err
		}
		base := sc.Arms[0]
		base.Name = "backtap"
		base.Transport.Policy = "backtap"
		sc.Arms = append(sc.Arms, base)
		if err := sc.Topology.Fabric.Validate(); err != nil {
			return nil, err
		}
		plan, err := netem.PartitionGraph(*sc.Topology.Fabric, shards)
		if err != nil {
			return nil, err
		}
		if plan.Shards != shards {
			return nil, fmt.Errorf("ring partitions into %d shards, want %d", plan.Shards, shards)
		}
		if _, err := workload.GenerateRelays(sc.Seed, *sc.Topology.Population); err != nil {
			return nil, err
		}
		if k == 0 {
			b.seed, b.spec, b.pop = sc.Seed, *sc.Topology.Fabric, *sc.Topology.Population
			b.initial, b.size, b.horizon = sc.Circuits.Count, sc.Circuits.TransferSize, sc.Horizon
		}
		b.inputs = append(b.inputs, perArmInputs(sc))
	}
	return b, nil
}

func (b *sharded) close() {}

// shardTrial is one executed composed sharded trial.
type shardTrial struct {
	outcomes   []outcome
	build, run span
	circuitUS  []float64
	events     []uint64 // per shard
	windowsUS  []float64
	barriers   []span // the harness barrier callbacks, inside run
	allocMB    float64
	counts     layerCounts
}

// composed builds and runs the composed sharded trial. With timed set
// the barrier callback records every window and its own time; without
// it the callback only checks for completion.
func (b *sharded) composed(timed bool) (*shardTrial, error) {
	if b.arenas == nil {
		b.arenas = []*arena.Arena{arena.New(), arena.New()}
	} else {
		for _, ar := range b.arenas {
			ar.ResetTrial()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := &shardTrial{}
	t.build.start = time.Now()
	sn, err := core.NewShardedNetwork(b.seed, b.spec, shards, b.arenas)
	if err != nil {
		return nil, err
	}
	sn.SetWindow(b.spec.MinPositiveTrunkDelay())
	relays, err := workload.GenerateRelays(b.seed, b.pop)
	if err != nil {
		return nil, err
	}
	descs := make([]directory.Descriptor, len(relays))
	ids := make([]netem.NodeID, 0, len(relays)+2*b.initial)
	for i, r := range relays {
		descs[i] = r.Desc
		if _, err := sn.AddRelay(r.Desc.ID, r.Access); err != nil {
			return nil, err
		}
		ids = append(ids, r.Desc.ID)
	}
	consensus, err := directory.NewConsensus(descs)
	if err != nil {
		return nil, err
	}
	access := netem.Symmetric(units.Mbps(100), 5*time.Millisecond, b.pop.QueueCap)
	pathRNG := sim.NewRNG(b.seed, "workload-paths")
	var circuits []*core.ShardedCircuit
	for i := 0; i < b.initial; i++ {
		path, err := consensus.SelectPath(pathRNG, 3)
		if err != nil {
			return nil, err
		}
		hops := make([]netem.NodeID, len(path))
		for j, d := range path {
			hops[j] = d.ID
		}
		src, dst := netem.NodeID(fmt.Sprintf("client-%03d", i)), netem.NodeID(fmt.Sprintf("server-%03d", i))
		c0 := time.Now()
		c, err := sn.BuildCircuit(core.CircuitSpec{Source: src, Sink: dst, SourceAccess: access, SinkAccess: access, Relays: hops})
		t.circuitUS = append(t.circuitUS, float64(time.Since(c0))/float64(time.Microsecond))
		if err != nil {
			return nil, err
		}
		circuits = append(circuits, c)
		ids = append(ids, src, dst)
	}
	startRNG := sim.NewRNG(b.seed, "perfbench-starts")
	for _, c := range circuits {
		c.ScheduleTransfer(sim.Time(startRNG.Int63n(int64(200*time.Millisecond))), b.size, false, nil)
	}
	t.build.end = time.Now()

	before := make([]uint64, sn.NumShards())
	for i := range before {
		before[i] = sn.Shard(i).Clock().Processed()
	}
	lastExit := time.Now()
	barrier := func(sim.Time) bool {
		entry := time.Now()
		done := true
		for _, c := range circuits {
			if !c.Done() {
				done = false
				break
			}
		}
		if timed {
			t.windowsUS = append(t.windowsUS, float64(entry.Sub(lastExit))/float64(time.Microsecond))
			lastExit = time.Now()
			t.barriers = append(t.barriers, span{name: "barrier", start: entry, end: lastExit})
		}
		return !done
	}
	t.run.start = time.Now()
	sn.RunWindows(b.horizon, barrier)
	t.run.end = time.Now()
	runtime.ReadMemStats(&m1)
	t.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	for i := range before {
		t.events = append(t.events, sn.Shard(i).Clock().Processed()-before[i])
	}

	fab := sn.Fabric()
	lc := &t.counts
	for _, id := range ids {
		if p := fab.Port(id); p != nil {
			lc.addLink(p.Uplink().Stats())
			lc.addLink(p.Downlink().Stats())
		}
		if r := sn.Relay(id); r != nil {
			lc.addRelay(r)
		}
	}
	for _, l := range fab.Trunks() {
		lc.addLink(l.Stats())
	}
	lc.unknownDst, lc.unroutable = fab.UnknownDst(), fab.Unroutable()
	lc.schedDrops = sn.SchedDrops()
	for _, c := range circuits {
		ttlb, done := c.TTLB()
		t.outcomes = append(t.outcomes, outcome{TTLB: ttlb, Done: done})
		lc.addSender(c.SourceSender(), true)
		for _, id := range c.Relays() {
			lc.addSender(sn.Relay(id).HopSender(c.ID()), false)
		}
	}
	return t, nil
}

func (b *sharded) tracedRound() error {
	if b.plainOut == nil {
		plain, err := b.composed(false)
		if err != nil {
			return err
		}
		b.plainOut = plain.outcomes
		b.plainMS = float64(plain.build.dur()+plain.run.dur()) / 1e6
		b.firstMB = plain.allocMB
		var incomplete error
		for i, o := range plain.outcomes {
			if !o.Done {
				incomplete = fmt.Errorf("composed sharded circuit %d incomplete", i)
			}
		}
		b.led.record("composed sharded trial", incomplete)
	}
	t, err := b.composed(true)
	if err != nil {
		return err
	}
	b.led.record("traced sharded trial", checkedOutcomes("traced vs untraced composed sharded trial", t.outcomes, b.plainOut))
	b.traced = append(b.traced, *t)
	return nil
}

func (b *sharded) perLayer(r *report, _ roundSample) {
	b.scenarioCounts(r)
	if len(b.traced) == 0 {
		return
	}
	var events uint64
	var nsPerEvent, build, barrier, imbalance, walls, circuitUS, windowsUS, steady []float64
	for _, t := range b.traced {
		var sum, max uint64
		for _, e := range t.events {
			sum += e
			if e > max {
				max = e
			}
		}
		events += sum
		if sum > 0 {
			nsPerEvent = append(nsPerEvent, float64(t.run.dur())/float64(sum))
			imbalance = append(imbalance, float64(max)/(float64(sum)/float64(len(t.events))))
		}
		build = append(build, float64(t.build.dur())/1e6)
		barrier = append(barrier, float64(t.run.dur()-selfTime(t.run, t.barriers))/1e6)
		walls = append(walls, float64(t.build.dur()+t.run.dur())/1e6)
		circuitUS = append(circuitUS, t.circuitUS...)
		windowsUS = append(windowsUS, t.windowsUS...)
		steady = append(steady, t.allocMB)
	}
	n := len(b.traced)
	last := b.traced[n-1]
	r.set("sim.events", float64(events), n, "sum over shard clocks, all traced trials")
	r.set("sim.events_per_trial", float64(events)/float64(n), n, "")
	r.set("sim.ns_per_event", median(nsPerEvent), len(nsPerEvent), "RunWindows span / summed Processed delta")
	reportCounts(r, last.counts)
	r.set("netem.shard.windows", float64(len(last.windowsUS)), 1, "barriers in the last traced trial")
	r.set("netem.shard.window_us_p50", median(windowsUS), len(windowsUS), "host time between barriers")
	r.set("netem.shard.barrier_ms", median(barrier), len(barrier), "host time in the barrier callback per trial")
	r.set("netem.shard.event_imbalance", median(imbalance), len(imbalance), "max/mean of per-shard Processed")
	r.set("core.build_ms_per_trial", median(build), len(build), "NewShardedNetwork + relays + circuits")
	r.set("core.circuit_build_us_p50", median(circuitUS), len(circuitUS), "")
	r.set("relay.deliver_self_ms", 0, 0, "not measured: the sharded network builds its own fabric, no Handler hook")
	r.set("endpoint.deliver_self_ms", 0, 0, "not measured: as relay.deliver_self_ms")
	r.set("arena.alloc_first_trial_MB", b.firstMB, 1, "composed sharded trial, fresh arenas")
	r.set("arena.alloc_steady_trial_MB", median(steady), n, "")
	if b.plainMS > 0 {
		r.set("trace.overhead", median(walls)/b.plainMS, n, "timed-barrier trial wall / plain-barrier trial wall")
		ns := onionNsPerCell()
		r.set("onion.ns_per_cell", ns, 1, "calibrated: WrapForward + 3 DecryptForward + VerifyForward")
		r.set("onion.share_computed", float64(last.counts.originCells)*ns/(b.plainMS*1e6), 1, "computed: cells x ns_per_cell / plain composed trial wall")
	}
}
