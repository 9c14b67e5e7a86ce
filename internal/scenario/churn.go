package scenario

import (
	"errors"
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// CircuitEvents configures circuit-level churn: instead of a fixed set
// of circuits living forever, circuits become dynamic entities — new
// downloads arrive over freshly built circuits mid-run, completed
// circuits are torn down (their cell and timer state released back to
// the pools), and initial circuits can be killed on a schedule. The
// zero value disables churn: circuits then live to the end of the trial.
type CircuitEvents struct {
	// ArrivalRate, when positive, adds an open-loop Poisson process of
	// new downloads (mean arrivals per second, stream
	// "scenario-churn"): at each arrival a fresh circuit is built — its
	// path sampled bandwidth-weighted from the consensus on generated
	// topologies (excluding currently-failed relays), or cycling
	// Circuits.Paths on explicit ones — and a TransferSize download
	// starts immediately.
	ArrivalRate float64
	// Arrivals bounds the Poisson process (required with ArrivalRate).
	Arrivals int
	// TeardownDelay is how long a completed download's circuit lingers
	// before teardown (0 = torn down at the completion instant). With
	// churn active this applies to every download, initial or arrived.
	// Setting it alone (no arrivals, no scheduled teardowns) still
	// enables churn: every circuit is torn down after its download
	// completes.
	TeardownDelay time.Duration
	// Teardowns schedules hard teardowns of initial circuits: the
	// circuit is closed at the given instant regardless of transfer
	// progress, and an unfinished download is recorded as aborted.
	Teardowns []TeardownEvent
}

// enabled reports whether any circuit-level churn is configured.
func (ce CircuitEvents) enabled() bool {
	return ce.ArrivalRate > 0 || len(ce.Teardowns) > 0 || ce.TeardownDelay > 0
}

// TeardownEvent schedules the teardown of one initial circuit.
type TeardownEvent struct {
	// At is the teardown instant.
	At sim.Time
	// Index names the initial circuit (0 ≤ Index < Circuits.Count).
	Index int
}

// RelayEventKind selects a relay churn action.
type RelayEventKind int

const (
	// RelayFail takes the relay out of service: it blackholes every
	// frame until recovery. Circuits crossing it at that instant are
	// torn down; arms with Rebuild set rebuild them over a fresh path.
	RelayFail RelayEventKind = iota
	// RelayRecover puts a failed relay back in service; new circuits
	// may be built through it again.
	RelayRecover
)

// RelayEvent schedules a relay failure or recovery.
type RelayEvent struct {
	At    sim.Time
	Relay netem.NodeID
	Kind  RelayEventKind
}

// hasChurn reports whether the scenario exercises the dynamic circuit
// lifecycle at all. When false, circuits stay up after their download,
// the clock stops at the last finish, and the trial reports no churn.
func (sc *Scenario) hasChurn() bool {
	return sc.CircuitEvents.enabled() || len(sc.RelayEvents) > 0 || sc.Faults.Enabled()
}

// validateChurn checks the churn-specific scenario fields. Called from
// validate once the topology fields are known-good.
func (sc *Scenario) validateChurn() error {
	ce := sc.CircuitEvents
	if ce.ArrivalRate < 0 || ce.Arrivals < 0 {
		return fmt.Errorf("scenario: negative churn arrival configuration")
	}
	if (ce.ArrivalRate > 0) != (ce.Arrivals > 0) {
		return fmt.Errorf("scenario: churn arrivals need both ArrivalRate and Arrivals")
	}
	if ce.TeardownDelay < 0 {
		return fmt.Errorf("scenario: negative teardown delay")
	}
	for i, td := range ce.Teardowns {
		if td.At <= 0 {
			return fmt.Errorf("scenario: teardown %d at %v", i, td.At)
		}
		if td.Index < 0 || td.Index >= sc.Circuits.Count {
			return fmt.Errorf("scenario: teardown %d names circuit %d of %d", i, td.Index, sc.Circuits.Count)
		}
	}
	relayKnown := sc.relayIDSet()
	for i, ev := range sc.RelayEvents {
		if ev.At <= 0 {
			return fmt.Errorf("scenario: relay event %d at %v", i, ev.At)
		}
		if ev.Kind != RelayFail && ev.Kind != RelayRecover {
			return fmt.Errorf("scenario: relay event %d has unknown kind %d", i, ev.Kind)
		}
		if !relayKnown[ev.Relay] {
			return fmt.Errorf("scenario: relay event %d names unknown relay %q", i, ev.Relay)
		}
	}
	for i, a := range sc.Arms {
		if a.Rebuild && sc.Topology.Population == nil {
			return fmt.Errorf("scenario: arm %d (%q) sets Rebuild, which needs a generated Population consensus", i, a.Name)
		}
	}
	var hasTrunk func(a, b netem.SwitchID) bool
	if sc.Topology.Fabric != nil {
		hasTrunk = sc.Topology.Fabric.HasTrunk
	}
	if err := sc.Faults.Validate(relayKnown, hasTrunk); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// relayIDSet returns the set of relay IDs the topology will contain —
// explicit IDs, or the deterministic names of the generated population.
func (sc *Scenario) relayIDSet() map[netem.NodeID]bool {
	out := make(map[netem.NodeID]bool)
	for _, r := range sc.Topology.Relays {
		out[r.ID] = true
	}
	if p := sc.Topology.Population; p != nil {
		for i := 0; i < p.N; i++ {
			out[workload.RelayID(i)] = true
		}
	}
	return out
}

// download is one logical transfer tracked by the trial engine. A
// download survives circuit rebuilds: when a relay failure kills its
// circuit, a Rebuild arm gives it a fresh circuit and restarts the
// transfer, and the download's TTLB spans first start to final
// completion — so repeated startups show up in the distribution.
//
// On the barrier plane the done/doneAt/ttlb trio is written mid-window
// by the completing shard (exactly one shard ever completes a given
// transfer) and read only at barriers, after the window's join — the
// barrier is the happens-before edge, so no lock is needed.
type download struct {
	index    int
	circuit  *core.Circuit
	startAt  sim.Time // first transfer start
	started  bool
	done     bool
	handled  bool // completion accounted by the engine
	aborted  bool
	killed   bool // evicted by a relay's resource manager
	rejected bool // refused at circuit admission
	settled  bool // counted toward the churn-free early stop
	doneAt   sim.Time
	ttlb     time.Duration
	rebuild  int

	// Recovery-engine state (zero unless Faults.Recovery is enabled;
	// the slab zeroes these on reuse like everything else).
	lastProgress uint64   // progressOf at the last watchdog check
	stalled      bool     // inside a declared stall
	stalledAt    sim.Time // when the open stall was declared
	retries      int      // rebuild attempts spent from the budget
	wgen         uint64   // watchdog generation; bumps invalidate chains
	ended        bool     // availability accounting closed
	est          *transport.RTTEstimator
	delivered    units.DataSize // bytes banked from discarded circuits
}

// trialNet is the network a trial's circuits live on: a core.Network
// or a core.ShardedNetwork.
type trialNet interface {
	workload.Builder
	faults.Network
}

// engine drives one trial — churn-free or with the dynamic circuit
// lifecycle — over a control plane (see plane), so everything it does
// is deterministic regardless of the worker pool running the trial.
type engine struct {
	sc      Scenario
	arm     Arm
	net     trialNet
	plane   plane
	cons    *directory.Consensus // nil on explicit topologies
	access  netem.AccessConfig
	churnOn bool

	pathRNG   *sim.RNG // churn-arrival and rebuild path sampling
	downloads []*download
	dlSlab    *arena.Slab[download] // nil without an arena
	failed    map[netem.NodeID]bool
	churn     ChurnStats

	// Fault-injection state (nil/zero without a fault plan).
	inj      *faults.Injector
	recovRNG *sim.RNG // recovery rebuild path sampling, own stream
	resil    ResilienceStats
}

// newDownload allocates a ledger entry — from the trial arena's slab
// when one is in play (churn-heavy trials create thousands), from the
// heap otherwise.
func (e *engine) newDownload(index int) *download {
	if e.dlSlab != nil {
		d := e.dlSlab.New()
		d.index = index
		return d
	}
	return &download{index: index}
}

// newEngine builds one trial's network and initial circuits and posts
// everything the trial will do to its control plane. ars supplies the
// trial's recycled substrate, one arena per shard (nil allocates fresh
// substrate).
func newEngine(sc Scenario, arm Arm, seed int64, ars []*arena.Arena) (*engine, error) {
	e := &engine{
		sc:      sc,
		arm:     arm,
		churnOn: sc.hasChurn(),
		pathRNG: sim.NewRNG(seed, "scenario-churn-paths"),
		failed:  make(map[netem.NodeID]bool),
	}
	if len(ars) > 0 {
		e.dlSlab = ars[0].Slot("scenario.downloads", func() any {
			return new(arena.Slab[download])
		}).(*arena.Slab[download])
	}
	e.churn.Lifetime = newLifetimeDist(arm.Name)
	initial, err := e.build(seed, ars)
	if err != nil {
		return nil, err
	}

	// Initial downloads follow the scenario's declared arrival process.
	// A nil slot is a circuit refused at admission by a resource-limited
	// relay; its download is recorded as rejected and never starts.
	delays := arrivalDelays(&sc, seed, len(initial))
	for i, c := range initial {
		d := e.newDownload(i)
		d.circuit = c
		e.downloads = append(e.downloads, d)
		if c == nil {
			d.aborted, d.rejected = true, true
			e.churn.Aborted++
			e.churn.Rejected++
			continue
		}
		e.churn.Built++
		if c.Closed() {
			// Evicted at build time (admission kill), before the kill
			// observer was installed — account the lifecycle here. Its
			// start still fires, to settle it at its would-be start.
			d.aborted, d.killed = true, true
			e.churn.Aborted++
			e.churn.TornDown++
			e.churn.Lifetime.Add(c.Lifetime().Seconds())
		}
		at := sim.Time(0).Add(delays[i])
		e.plane.post(qStart, at, func() { e.start(d, at) })
	}

	// Churn arrivals: an independent Poisson stream, so the initial
	// workload is unchanged by enabling churn.
	if ce := sc.CircuitEvents; ce.ArrivalRate > 0 {
		rng := sim.NewRNG(seed, "scenario-churn")
		var at time.Duration
		for j := 0; j < ce.Arrivals; j++ {
			at += time.Duration(rng.Exponential(1/ce.ArrivalRate) * float64(time.Second))
			d := e.newDownload(len(e.downloads))
			e.downloads = append(e.downloads, d)
			t := sim.Time(0).Add(at)
			e.plane.post(qArrival, t, func() { e.arrive(d, t) })
		}
	}
	for _, td := range sc.CircuitEvents.Teardowns {
		d := e.downloads[td.Index]
		e.plane.post(qTeardown, td.At, func() { e.abort(d) })
	}
	for _, ev := range sc.RelayEvents {
		ev := ev
		e.plane.post(qRelay, ev.At, func() { e.relayEvent(ev) })
	}
	// With churn on there is no early stop: teardown releases every
	// timer, so the trial drains on its own once the last download
	// finishes (or the horizon cuts a stalled one off).
	return e, nil
}

// build makes the trial's network and control plane — the clock plane
// on one core.Network when Shards is 0, the barrier plane on a
// core.ShardedNetwork otherwise — attaches the relays, builds the
// initial circuits (nil slots are circuits refused at admission) and
// installs the fault plan.
func (e *engine) build(seed int64, ars []*arena.Arena) ([]*core.Circuit, error) {
	var ar *arena.Arena
	if len(ars) > 0 {
		ar = ars[0]
	}
	// TrainSize is stamped onto a deep copy of the fabric: the original
	// is shared across parallel workers and must never be mutated.
	var spec *netem.GraphSpec
	if e.sc.Topology.Fabric != nil {
		s := e.sc.Topology.Fabric.Clone()
		for i := range s.Trunks {
			s.Trunks[i].Config.TrainSize = e.sc.TrainSize
		}
		spec = &s
	}
	if e.sc.Shards > 0 {
		sn, err := core.NewShardedNetwork(seed, *spec, e.sc.Shards, ars)
		if err != nil {
			return nil, err
		}
		e.net, e.plane = sn, newBarrierPlane(e, sn, spec.MinPositiveTrunkDelay())
	} else {
		n, err := workload.NewNetwork(seed, spec, ar, e.sc.TrainSize)
		if err != nil {
			return nil, err
		}
		e.net, e.plane = n, &clockPlane{e: e, n: n}
	}
	var initial []*core.Circuit
	if e.sc.Topology.Population != nil {
		pop, err := workload.Populate(seed, e.net, workloadParams(e.sc, e.arm))
		if err != nil {
			return nil, err
		}
		initial, e.cons, e.access = pop.Circuits, pop.Consensus, pop.Params.ClientAccess
	} else {
		var err error
		if initial, e.access, err = populateExplicit(e.net, e.sc, e.arm); err != nil {
			return nil, err
		}
	}
	if n, ok := e.net.(*core.Network); ok {
		// Link events and resource-manager kills exist only on one
		// clock: validateSharded rejects both on shards.
		scheduleEvents(n, e.sc.Events)
		n.OnKill(e.onKill)
	}
	if e.sc.Faults.Enabled() {
		e.inj = faults.Install(e.net, e.sc.Faults, seed)
	}
	if e.sc.Faults.Recovery.Enabled {
		e.recovRNG = sim.NewRNG(seed, "faults-recovery-paths")
		e.resil.TTR = newTTRDist(e.arm.Name)
	}
	return initial, nil
}

// run plays the trial and renders its outcomes and accounting.
func (e *engine) run(rep int) ([]CircuitOutcome, NetStats, ChurnStats, ResilienceStats) {
	e.plane.run(e.sc.Horizon)
	out := e.collect(rep)
	if !e.churnOn {
		return out, e.plane.netStats(), ChurnStats{}, e.resil
	}
	return out, e.plane.netStats(), e.churn, e.resil
}

// start begins initial download d's first transfer at its
// arrival-process instant. A scheduled teardown may kill the circuit
// before the staggered start arrives (the start is then dropped — the
// download is already accounted as aborted), and a relay failure may
// have replaced the circuit with a rebuilt one (the start then proceeds
// on it).
func (e *engine) start(d *download, at sim.Time) {
	if d.started || d.aborted || d.circuit.Closed() {
		e.plane.settle(d)
		return
	}
	d.started = true
	d.startAt = at
	e.startTransfer(d, at)
}

// startTransfer begins (or, after a rebuild, restarts) d's transfer on
// its current circuit at instant at. The completion callback writes
// only d's own fields, and its timestamps derive from at plus the
// transfer's measured duration, never from a barrier's position.
func (e *engine) startTransfer(d *download, at sim.Time) {
	d.done, d.handled = false, false
	size := e.sc.Circuits.sizeFor(d.index)
	e.plane.transfer(d.circuit, at, size, e.sc.Circuits.Download, func(ttlb time.Duration) {
		d.doneAt = at.Add(ttlb)
		d.ttlb = d.doneAt.Sub(d.startAt)
		d.done = true
		e.plane.completed(d)
	})
	if e.recoveryOn() {
		e.ensureEst(d)
		d.wgen++ // invalidate watchdog chains from a previous circuit
		d.lastProgress = e.progressOf(d)
		e.armWatchdog(d)
	}
}

// onKill observes a resource-manager eviction. The kill path tears the
// circuit down directly (bypassing e.teardown), so the lifecycle
// accounting happens here, and the victim's download is marked killed
// rather than left looking stalled.
func (e *engine) onKill(c *core.Circuit) {
	for _, d := range e.downloads {
		if d.circuit != c {
			continue
		}
		if !d.done && !d.aborted {
			d.aborted, d.killed = true, true
			e.churn.Aborted++
			e.endActive(d)
		}
		e.plane.settle(d)
		break
	}
	e.churn.TornDown++
	e.churn.Lifetime.Add(c.Lifetime().Seconds())
}

// arrive builds a fresh circuit for churn download d and starts it at
// its arrival instant. With recovery enabled, a failed build enters the
// retry/backoff ladder instead of aborting outright — build failures
// get the same treatment as stalls.
func (e *engine) arrive(d *download, at sim.Time) {
	if e.recoveryOn() {
		if err := e.buildOn(d, e.pathRNG, e.inj.ExcludedWith(e.failed)); err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				e.churn.Rejected++
			}
			e.tryRebuild(d)
			return
		}
	} else if !e.buildFresh(d) {
		return
	}
	d.started = true
	d.startAt = at
	e.startTransfer(d, at)
}

// buildFresh gives download d a freshly built circuit. On a generated
// topology the path is sampled from the consensus, skipping failed
// relays; explicit topologies cycle the declared paths (arrival
// indices run past Count). If no path is currently available (every
// candidate for some position is down) or the build fails, the
// download is recorded as aborted and buildFresh reports false.
func (e *engine) buildFresh(d *download) bool {
	err := e.buildOn(d, e.pathRNG, e.failed)
	if err == nil {
		return true
	}
	if errors.Is(err, core.ErrCircuitRejected) {
		d.rejected = true
		e.churn.Rejected++
	}
	// Building over declared relays cannot fail after validation;
	// treat a failure as an aborted download rather than a panic.
	d.aborted = true
	e.churn.Aborted++
	e.endActive(d)
	return false
}

// buildOn builds download d a circuit over a path sampled with the
// given RNG stream, excluding excl — the shared primitive under churn
// rebuilds (pathRNG, scripted failures) and recovery rebuilds (recovRNG,
// failures plus fault-suspect relays). On success the circuit is
// installed and counted; the caller owns failure accounting.
func (e *engine) buildOn(d *download, rng *sim.RNG, excl map[netem.NodeID]bool) error {
	path, err := pathFor(e.sc, e.cons, rng, excl, d.index)
	if err != nil {
		return err
	}
	c, err := e.net.BuildCircuit(circuitSpec(e.sc, e.arm, e.access, d.index, d.rebuild, path))
	if err != nil {
		return err
	}
	d.circuit = c
	e.churn.Built++
	return nil
}

// complete accounts download d's completion, which its transfer's
// callback recorded. With churn on it schedules the circuit's teardown
// after the configured linger; a churn-free circuit stays up and only
// settles toward the early stop.
func (e *engine) complete(d *download) {
	d.handled = true
	if e.recoveryOn() {
		if d.stalled {
			// Completion arrived before the watchdog saw new progress;
			// the recovery span runs to the completion instant.
			e.recordRecovery(d)
		}
		e.endActive(d)
	}
	if !e.churnOn {
		e.plane.settle(d)
		return
	}
	circ := d.circuit
	if delay := e.sc.CircuitEvents.TeardownDelay; delay > 0 {
		e.plane.post(qLinger, d.doneAt.Add(delay), func() { e.teardown(circ) })
	} else {
		e.teardown(circ)
	}
}

// abort tears download d down before completion (a scheduled teardown
// of an initial circuit).
func (e *engine) abort(d *download) {
	if d.done || d.aborted || d.circuit == nil || d.circuit.Closed() {
		return
	}
	d.aborted = true
	e.churn.Aborted++
	e.endActive(d)
	e.teardown(d.circuit)
}

// teardown closes a circuit and accounts its lifetime.
func (e *engine) teardown(c *core.Circuit) {
	if c.Closed() {
		return
	}
	c.Teardown()
	e.churn.TornDown++
	e.churn.Lifetime.Add(c.Lifetime().Seconds())
}

// relayEvent applies one relay failure or recovery. On failure, every
// live circuit crossing the relay is torn down; Rebuild arms give the
// affected downloads fresh circuits over paths that avoid all
// currently-failed relays and restart their transfers from scratch —
// each rebuild pays a full startup again.
func (e *engine) relayEvent(ev RelayEvent) {
	r := e.net.Relay(ev.Relay)
	if ev.Kind == RelayRecover {
		delete(e.failed, ev.Relay)
		r.Recover()
		return
	}
	if e.failed[ev.Relay] {
		return
	}
	e.failed[ev.Relay] = true
	r.Fail()
	for _, d := range e.downloads {
		if d.done || d.aborted || d.circuit == nil || d.circuit.Closed() {
			continue
		}
		if !crossesRelay(d.circuit, ev.Relay) {
			continue
		}
		if e.recoveryOn() {
			// Bank the dying circuit's delivered bytes for goodput.
			d.delivered += e.receivedOn(d.circuit)
		}
		e.teardown(d.circuit)
		if !e.arm.Rebuild || e.cons == nil {
			d.aborted = true
			e.churn.Aborted++
			e.endActive(d)
			continue
		}
		d.rebuild++
		if !e.buildFresh(d) {
			continue
		}
		e.churn.Rebuilt++
		// Restart only a transfer that was actually running; a download
		// still waiting for its staggered start keeps that schedule and
		// simply starts on the rebuilt circuit.
		if d.started {
			e.startTransfer(d, e.plane.now())
		}
	}
}

// crossesRelay reports whether the circuit's path contains the relay.
func crossesRelay(c *core.Circuit, id netem.NodeID) bool {
	for _, r := range c.Relays() {
		if r == id {
			return true
		}
	}
	return false
}

// collect renders the engine's downloads into outcomes, in download
// index order. With churn on, circuits still alive at the stop are torn
// down here so their lifetimes and pooled state are accounted too;
// churn-free trials leave them standing and report no Aborted, and on
// the clock plane no StartAt (DESIGN.md, "The scenario layer", rule 3).
func (e *engine) collect(rep int) []CircuitOutcome {
	out := make([]CircuitOutcome, len(e.downloads))
	for i, d := range e.downloads {
		o := CircuitOutcome{
			Replication: rep,
			Index:       i,
			TTLB:        d.ttlb,
			Done:        d.done,
			Aborted:     d.aborted,
			Killed:      d.killed,
			Rejected:    d.rejected,
			StartAt:     d.startAt,
			Rebuilds:    d.rebuild,
		}
		if !e.churnOn {
			o.Aborted = false
			if e.sc.Shards == 0 {
				o.StartAt = 0
			}
		}
		if d.circuit != nil {
			if e.churnOn {
				e.teardown(d.circuit)
			}
			o.OptimalCells = d.circuit.ModelPath().OptimalSourceWindowCells()
			st := d.circuit.SourceSender().Stats()
			o.ExitCwnd, o.ExitTime, o.Restarts = st.ExitCwnd, st.ExitTime, st.Restarts
			if e.sc.Probes.TraceCwnd {
				o.Trace = d.circuit.SourceTrace()
			}
		}
		if e.recoveryOn() {
			// Downloads still running (or stalled) at the horizon close
			// their availability accounting here; endpoint objects
			// survive Teardown, so the final circuit's bytes are
			// readable for goodput.
			e.endActive(d)
			e.resil.GoodputBytes += float64(d.delivered + e.receivedOn(d.circuit))
		}
		out[i] = o
	}
	return out
}

// queue names a class of control actions. A barrier drains the queues
// in declaration order; the order of actions due at the same instant
// on one clock is the order they were posted.
type queue int

const (
	// Due actions run at their instant on one clock, and at the first
	// barrier at or after it on shards.
	qLinger   queue = iota // a completed circuit's teardown linger expiring
	qTeardown              // a scheduled teardown of an initial circuit
	qRelay                 // a relay failure or recovery
	qRecovery              // a recovery watchdog check or rebuild backoff
	// Ahead actions start a transfer at exactly their instant: on shards
	// they run at the last barrier before it, which schedules the
	// transfer at the instant itself.
	qArrival // a churn arrival
	qStart   // an initial download's start
	numQueues
)

// plane is a trial's control plane: it places the engine's control
// actions in the data plane's time. The clock plane runs each at its
// instant on one clock; the barrier plane runs them between the
// windows of a sharded network, where every shard clock is parked.
type plane interface {
	// post queues fn to run for instant at (see queue).
	post(q queue, at sim.Time, fn func())
	// transfer starts a transfer of size bytes on c at instant at, as
	// core.Circuit.ScheduleTransfer does; onDone gets the circuit's TTLB.
	transfer(c *core.Circuit, at sim.Time, size units.DataSize, download bool, onDone func(time.Duration))
	// completed hands the engine a download whose completion onDone
	// just recorded.
	completed(d *download)
	// settle counts initial download d out of a churn-free trial's
	// early stop.
	settle(d *download)
	// now is the instant control actions run at.
	now() sim.Time
	// run plays the trial to the horizon or its early stop.
	run(horizon sim.Time)
	// netStats snapshots the fabric accounting after run.
	netStats() NetStats
}

// clockPlane runs a trial on one core.Network: every control action is
// an event on its clock, and a completion is accounted at its instant.
type clockPlane struct {
	e *engine
	n *core.Network
	// unsettled counts the churn-free trial's initial circuits that
	// have not yet completed, been killed or been evicted; the clock
	// stops when it reaches zero (unless RunFullHorizon).
	unsettled int
}

// post schedules fn at its instant; a start due now runs inline.
func (p *clockPlane) post(q queue, at sim.Time, fn func()) {
	if q == qStart {
		p.unsettled++
		if at == p.n.Now() {
			fn()
			return
		}
	}
	p.n.Clock().At(at, fn)
}

func (p *clockPlane) transfer(c *core.Circuit, _ sim.Time, size units.DataSize, download bool, onDone func(time.Duration)) {
	if download {
		c.TransferBackward(size, onDone)
	} else {
		c.Transfer(size, onDone)
	}
}

func (p *clockPlane) completed(d *download) { p.e.complete(d) }

// settle stops the clock once every initial circuit has completed,
// been killed or been evicted, unless the trial runs its full horizon.
func (p *clockPlane) settle(d *download) {
	if p.e.churnOn || d.settled {
		return
	}
	d.settled = true
	p.unsettled--
	if p.unsettled == 0 && !p.e.sc.RunFullHorizon {
		p.n.Clock().Stop()
	}
}

func (p *clockPlane) now() sim.Time { return p.n.Now() }

func (p *clockPlane) run(horizon sim.Time) { p.n.RunUntil(horizon) }

func (p *clockPlane) netStats() NetStats {
	return netStats(p.n.Fabric(), p.n.ResourceStats(), p.n.SchedDrops())
}
