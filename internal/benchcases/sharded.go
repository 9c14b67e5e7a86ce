package benchcases

import (
	"testing"
	"time"

	"circuitstart/internal/experiments"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// shardedChurn runs one whole-network churn trial per iteration at the
// scale ablation's default population (1,024 relays behind a 16-switch
// ring, 48 initial + 96 arriving downloads) and the given shard count.
// The 1-vs-4-shard pair in the headline snapshot records the sharded
// engine's wall-clock trajectory alongside the microbenchmarks; unlike
// those it allocates whole trials, so it is deliberately NOT in the
// zero-alloc gate.
func shardedChurn(b *testing.B, shards int) {
	sc, err := experiments.DefaultScaleParams().Scenario(shards)
	if err != nil {
		b.Fatal(err)
	}
	runner := scenario.Runner{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ShardedChurn1 is the single-shard baseline of the pair.
func ShardedChurn1(b *testing.B) { shardedChurn(b, 1) }

// ShardedChurn4 is the same trial split across four shards.
func ShardedChurn4(b *testing.B) { shardedChurn(b, 4) }

// ShardHandoff measures one frame crossing a shard boundary in steady
// state: two switches on two shards joined by one cut trunk, one frame
// sent per barrier, so each op is one frame exported on the source
// shard, imported at a barrier and delivered on the destination shard.
// CI fails if this reports nonzero allocs/op — the boundary frame FIFO,
// the destination slab, the pre-bound import slots and the merge heap
// must all be reused across barriers.
func ShardHandoff(b *testing.B) {
	const warm = 64
	spec := netem.GraphSpec{
		Switches: []netem.SwitchID{"a", "b"},
		Trunks: []netem.TrunkSpec{{A: "a", B: "b",
			Config: netem.SymmetricTrunk(units.Mbps(1000), time.Millisecond, 0)}},
		Homes: map[netem.NodeID]netem.SwitchID{"x": "a", "y": "b"},
	}
	plan, err := netem.PartitionGraph(spec, 2)
	if err != nil {
		b.Fatal(err)
	}
	sf := netem.NewShardedFabric(spec, plan, []*sim.Clock{sim.NewClock(), sim.NewClock()}, nil)
	access := netem.Symmetric(units.Mbps(1000), 100*time.Microsecond, 0)
	delivered := 0
	px := sf.Shard(sf.ShardOf("x")).Attach("x", access, netem.HandlerFunc(func(*netem.Frame) {}), nil)
	sf.Shard(sf.ShardOf("y")).Attach("y", access, netem.HandlerFunc(func(*netem.Frame) { delivered++ }), nil)
	total, sent := warm+b.N, 0
	b.ReportAllocs()
	sf.RunWindows(sim.MaxTime, func(sim.Time) bool {
		if sent == warm {
			b.ResetTimer()
		}
		if sent < total {
			px.Send("y", 512, nil)
			sent++
		}
		return delivered < total
	})
	if delivered != total || sf.Imported() != uint64(total) {
		b.Fatalf("delivered %d, imported %d of %d", delivered, sf.Imported(), total)
	}
}
