package core

import (
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
)

// ShardedNetwork is a Network partitioned across per-core shards: one
// core.Network per shard, each with its own clock, arena, frame/cell/
// segment pools and relay set, coupled only through the ShardedFabric's
// conservative-lookahead boundary queues.
//
// Determinism contract: identities and circuit keys are drawn from ONE
// global "onion-keys" stream in global AddRelay/BuildCircuit order —
// exactly the order the unsharded engine consumes — so a sharded trial
// is byte-identical to the unsharded one for any shard count. All
// construction, circuit builds and teardowns are control-plane
// operations: they may only run while every shard clock is parked (at
// t = 0 or inside a RunWindows barrier).
type ShardedNetwork struct {
	seed   int64
	fab    *netem.ShardedFabric
	shards []*Network

	// registry draws every identity and circuit key for all shards.
	registry
	relayShard map[netem.NodeID]int
}

func (sn *ShardedNetwork) reg() *registry { return &sn.registry }

func (sn *ShardedNetwork) netOf(id netem.NodeID) *Network {
	if shard, ok := sn.relayShard[id]; ok {
		return sn.shards[shard]
	}
	return sn.shards[sn.fab.ShardOf(id)]
}

func (sn *ShardedNetwork) pathTransits(a, b netem.NodeID) []*netem.Link {
	return sn.fab.PathTransits(a, b)
}

// NewShardedNetwork partitions spec into at most shards shards and
// builds one per-shard Network. arenas, when non-nil, supplies one
// arena per effective shard (len ≥ plan.Shards; extra entries are
// ignored) so trial loops reuse pools across trials; nil allocates
// fresh substrate.
func NewShardedNetwork(seed int64, spec netem.GraphSpec, shards int, arenas []*arena.Arena) (*ShardedNetwork, error) {
	plan, err := netem.PartitionGraph(spec, shards)
	if err != nil {
		return nil, err
	}
	if arenas != nil && len(arenas) < plan.Shards {
		return nil, fmt.Errorf("core: %d arenas for %d shards", len(arenas), plan.Shards)
	}
	if arenas == nil {
		arenas = make([]*arena.Arena, plan.Shards)
		for i := range arenas {
			arenas[i] = arena.New()
		}
	}
	clocks := make([]*sim.Clock, plan.Shards)
	for i := range clocks {
		clocks[i] = arenas[i].Clock
	}
	var fab *netem.ShardedFabric
	sn := &ShardedNetwork{
		seed:       seed,
		registry:   newRegistry(seed),
		relayShard: make(map[netem.NodeID]int),
	}
	sn.shards = make([]*Network, plan.Shards)
	for i := 0; i < plan.Shards; i++ {
		i := i
		ar := arenas[i]
		sn.shards[i] = newNetwork(ar, seed, func(clock *sim.Clock, lossRNG *sim.RNG) netem.Fabric {
			if fab == nil {
				fab = netem.NewShardedFabric(spec, plan, clocks, lossRNG)
			}
			return fab.Shard(i)
		})
	}
	sn.fab = fab
	return sn, nil
}

// Fabric returns the sharded fabric (global trunk list, path queries,
// boundary accounting).
func (sn *ShardedNetwork) Fabric() *netem.ShardedFabric { return sn.fab }

// NumShards returns the effective shard count.
func (sn *ShardedNetwork) NumShards() int { return len(sn.shards) }

// Shard returns shard i's Network. Use it only for shard-local,
// control-plane inspection (relay stats, scheduler drops).
func (sn *ShardedNetwork) Shard(i int) *Network { return sn.shards[i] }

// Seed returns the experiment seed.
func (sn *ShardedNetwork) Seed() int64 { return sn.seed }

// ConfigureRelays applies the scheduling template on every shard (and,
// for the EWMA discipline, each shard's trunk links — boundary egress
// links included, so backbone scheduling is cut-invariant). Resource
// limits are rejected: an eviction tears a circuit down network-wide
// mid-window, which would touch foreign shards outside a barrier.
func (sn *ShardedNetwork) ConfigureRelays(cfg relay.Config) error {
	if cfg.Limits.Enabled() {
		return fmt.Errorf("core: resource limits are not supported on a sharded network")
	}
	for _, n := range sn.shards {
		if err := n.ConfigureRelays(cfg); err != nil {
			return err
		}
	}
	return nil
}

// AddRelay attaches a relay on the shard owning its home switch. The
// identity comes from the global key stream, in call order.
func (sn *ShardedNetwork) AddRelay(id netem.NodeID, access netem.AccessConfig) (*relay.Relay, error) {
	r, err := addRelay(sn, id, access)
	if err == nil {
		sn.relayShard[id] = sn.fab.ShardOf(id)
	}
	return r, err
}

// Relay returns an attached relay regardless of shard, or nil.
func (sn *ShardedNetwork) Relay(id netem.NodeID) *relay.Relay {
	shard, ok := sn.relayShard[id]
	if !ok {
		return nil
	}
	return sn.shards[shard].relays[id]
}

// SchedDrops totals scheduler drops across every shard.
func (sn *ShardedNetwork) SchedDrops() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.SchedDrops()
	}
	return total
}

// RunWindows executes the sharded trial (see ShardedFabric.RunWindows).
func (sn *ShardedNetwork) RunWindows(horizon sim.Time, barrier func(now sim.Time) bool) sim.Time {
	return sn.fab.RunWindows(horizon, barrier)
}

// SetWindow pins the barrier stride to a partition-independent value
// (see ShardedFabric.SetWindow).
func (sn *ShardedNetwork) SetWindow(d time.Duration) { sn.fab.SetWindow(d) }

// Trunk returns the directed trunk link a → b regardless of shard, or
// nil when the spec has no such trunk.
func (sn *ShardedNetwork) Trunk(a, b netem.SwitchID) *netem.Link { return sn.fab.Trunk(a, b) }

// TrunkClock returns the clock of the shard owning the a → b direction
// of a trunk — the only clock fault episodes conditioning that link may
// schedule on.
func (sn *ShardedNetwork) TrunkClock(a, b netem.SwitchID) *sim.Clock {
	return sn.shards[sn.fab.ShardOfSwitch(a)].clock
}

// RelayClock returns the clock of the shard a relay lives on, or nil
// when the relay is unknown.
func (sn *ShardedNetwork) RelayClock(id netem.NodeID) *sim.Clock {
	shard, ok := sn.relayShard[id]
	if !ok {
		return nil
	}
	return sn.shards[shard].clock
}

// ShardedCircuit is the circuit a ShardedNetwork builds: the same
// Circuit a Network builds. The alias stays only while the perfbench
// harness (perfbench/sharded.go) still names it; that harness changes
// only together with the benchmark definition.
type ShardedCircuit = Circuit

// BuildCircuit builds a circuit across shards: the global key stream is
// consumed in the same order as on one clock, each relay hop is wired
// on its owning shard, and the endpoints attach on theirs. Call only
// while all shard clocks are parked at the same instant.
func (sn *ShardedNetwork) BuildCircuit(spec CircuitSpec) (*Circuit, error) {
	return buildCircuit(sn, spec)
}
