package netem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// chainSpec builds switches s0..s(n-1) joined in a line, trunk i
// (s_i—s_i+1) having delays[i].
func chainSpec(delays ...time.Duration) GraphSpec {
	gs := GraphSpec{Switches: []SwitchID{"s0"}}
	for i, d := range delays {
		b := SwitchID(fmt.Sprintf("s%d", i+1))
		gs.Switches = append(gs.Switches, b)
		gs.Trunks = append(gs.Trunks, TrunkSpec{A: SwitchID(fmt.Sprintf("s%d", i)), B: b,
			Config: SymmetricTrunk(units.Mbps(100), d, 0)})
	}
	return gs
}

func partition(t *testing.T, gs GraphSpec, shards int) ShardPlan {
	t.Helper()
	plan, err := PartitionGraph(gs, shards)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestShardPartitionContractsZeroDelayTrunks(t *testing.T) {
	// s0=s1 and s2=s3=s4 are zero-delay chains: two components.
	gs := chainSpec(0, 2*time.Millisecond, 0, 0)
	for shards := 1; shards <= 4; shards++ {
		plan := partition(t, gs, shards)
		for _, tr := range gs.Trunks {
			if tr.Config.Delay == 0 && plan.Assign[tr.A] != plan.Assign[tr.B] {
				t.Errorf("%d shards: zero-delay trunk %s—%s cut", shards, tr.A, tr.B)
			}
		}
	}
}

func TestShardPartitionEffectiveShardCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gs    GraphSpec
		comps int
	}{
		{"singletons", chainSpec(time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond), 5},
		{"contracted", chainSpec(0, 2*time.Millisecond, 0, 0), 2},
		{"one component", chainSpec(0, 0), 1},
	} {
		for shards := 1; shards <= 8; shards++ {
			want := shards
			if tc.comps < want {
				want = tc.comps
			}
			plan := partition(t, tc.gs, shards)
			if plan.Shards != want {
				t.Errorf("%s, %d shards requested: got %d, want %d", tc.name, shards, plan.Shards, want)
			}
			used := make(map[int]bool)
			for _, s := range plan.Assign {
				if s < 0 || s >= plan.Shards {
					t.Fatalf("%s: shard %d outside [0, %d)", tc.name, s, plan.Shards)
				}
				used[s] = true
			}
			if len(used) != plan.Shards || len(plan.Assign) != len(tc.gs.Switches) {
				t.Errorf("%s: %d shards used of %d, %d switches assigned of %d",
					tc.name, len(used), plan.Shards, len(plan.Assign), len(tc.gs.Switches))
			}
		}
	}
	if _, err := PartitionGraph(chainSpec(time.Millisecond), 0); err == nil {
		t.Error("PartitionGraph accepted 0 shards")
	}
}

func TestShardPartitionLookahead(t *testing.T) {
	// A four-switch ring plus a 1 ms chord s0—s2. Singletons alternate
	// over two shards, so the chord stays inside shard 0 and the
	// lookahead is the fastest cut ring trunk, not the chord.
	gs := chainSpec(4*time.Millisecond, 3*time.Millisecond, 5*time.Millisecond)
	gs.Trunks = append(gs.Trunks,
		TrunkSpec{A: "s3", B: "s0", Config: SymmetricTrunk(units.Mbps(100), 6*time.Millisecond, 0)},
		TrunkSpec{A: "s0", B: "s2", Config: SymmetricTrunk(units.Mbps(100), time.Millisecond, 0)})
	if plan := partition(t, gs, 1); plan.Lookahead != 0 {
		t.Errorf("one shard: lookahead %v, want 0", plan.Lookahead)
	}
	for shards := 2; shards <= 4; shards++ {
		plan := partition(t, gs, shards)
		want := time.Duration(0)
		for _, tr := range gs.Trunks {
			if plan.Assign[tr.A] != plan.Assign[tr.B] && (want == 0 || tr.Config.Delay < want) {
				want = tr.Config.Delay
			}
		}
		if want == 0 || plan.Lookahead != want {
			t.Errorf("%d shards: lookahead %v, want min cut delay %v", shards, plan.Lookahead, want)
		}
	}
	if plan := partition(t, gs, 2); plan.Lookahead != 3*time.Millisecond {
		t.Errorf("two shards: lookahead %v, want 3ms (the 1ms chord is not cut)", plan.Lookahead)
	}
}

func TestShardPartitionBalancedBySwitchCount(t *testing.T) {
	count := func(plan ShardPlan) []int {
		n := make([]int, plan.Shards)
		for _, s := range plan.Assign {
			n[s]++
		}
		return n
	}
	// Sixteen singleton switches spread evenly.
	line := make([]time.Duration, 15)
	for i := range line {
		line[i] = time.Millisecond
	}
	for shards := 1; shards <= 5; shards++ {
		n := count(partition(t, chainSpec(line...), shards))
		for _, c := range n {
			if c < 16/shards || c > (16+shards-1)/shards {
				t.Errorf("%d shards over 16 switches: counts %v", shards, n)
				break
			}
		}
	}
	// Components of 3, 2, 2 and 1 switches: largest first onto the
	// lightest shard gives 3+1 and 2+2.
	gs := chainSpec(0, 0, time.Millisecond, 0, time.Millisecond, 0, time.Millisecond)
	if n := count(partition(t, gs, 2)); !reflect.DeepEqual(n, []int{4, 4}) {
		t.Errorf("components 3,2,2,1 on two shards: counts %v, want [4 4]", n)
	}
}

func TestShardPartitionDeterministic(t *testing.T) {
	gs := chainSpec(time.Millisecond, 0, 2*time.Millisecond, time.Millisecond, 0, 3*time.Millisecond, time.Millisecond)
	for shards := 1; shards <= 4; shards++ {
		first := partition(t, gs, shards)
		for i := 0; i < 20; i++ {
			if again := partition(t, gs, shards); !reflect.DeepEqual(again, first) {
				t.Fatalf("%d shards: call %d gave %+v, first gave %+v", shards, i, again, first)
			}
		}
	}
}

// twoShardFabric partitions a two-switch spec (a on shard 0, b on shard
// 1) and attaches x on a and y on b.
func twoShardFabric(t *testing.T, trunk TrunkConfig) (*ShardedFabric, *Port, *sink) {
	t.Helper()
	spec := GraphSpec{
		Switches: []SwitchID{"a", "b"},
		Trunks:   []TrunkSpec{{A: "a", B: "b", Config: trunk}},
		Homes:    map[NodeID]SwitchID{"x": "a", "y": "b"},
	}
	plan := partition(t, spec, 2)
	clocks := []*sim.Clock{sim.NewClock(), sim.NewClock()}
	sf := NewShardedFabric(spec, plan, clocks, nil)
	access := Symmetric(units.Mbps(100), time.Millisecond, 0)
	y := &sink{clock: clocks[sf.ShardOf("y")]}
	px := sf.Shard(sf.ShardOf("x")).Attach("x", access, &sink{clock: clocks[sf.ShardOf("x")]}, nil)
	sf.Shard(sf.ShardOf("y")).Attach("y", access, y, nil)
	return sf, px, y
}

func TestShardHandoffMatchesUnsharded(t *testing.T) {
	// A burst across one cut trunk that forms trains: the sharded
	// delivery must equal the single-clock fabric's frame for frame and
	// instant for instant, and the boundary must drain completely.
	trunk := TrunkConfig{Rate: units.Mbps(10), Delay: 3 * time.Millisecond, TrainSize: 4}
	const n = 40
	send := func(p *Port) {
		for i := 0; i < n; i++ {
			p.SendCirc("y", 512, i, uint32(i))
		}
	}

	clock := sim.NewClock()
	g := GraphSpec{
		Switches: []SwitchID{"a", "b"},
		Trunks:   []TrunkSpec{{A: "a", B: "b", Config: trunk}},
		Homes:    map[NodeID]SwitchID{"x": "a", "y": "b"},
	}.Build(clock, nil)
	ref := &sink{clock: clock}
	access := Symmetric(units.Mbps(100), time.Millisecond, 0)
	g.Attach("x", access, &sink{clock: clock}, nil)
	g.Attach("y", access, ref, nil)
	send(g.Port("x"))
	clock.Run()

	sf, px, y := twoShardFabric(t, trunk)
	sf.RunWindows(sim.MaxTime, func(now sim.Time) bool {
		if now == 0 {
			send(px)
		}
		return !sf.Idle()
	})

	if len(y.frames) != n || len(ref.frames) != n {
		t.Fatalf("delivered %d sharded, %d unsharded, want %d", len(y.frames), len(ref.frames), n)
	}
	for i := range ref.frames {
		if *y.frames[i] != *ref.frames[i] || y.times[i] != ref.times[i] {
			t.Fatalf("frame %d: sharded %+v at %v, unsharded %+v at %v",
				i, *y.frames[i], y.times[i], *ref.frames[i], ref.times[i])
		}
	}
	got, want := sf.Trunk("a", "b").Stats(), g.Trunk("a", "b").Stats()
	if got != want {
		t.Errorf("trunk stats sharded %+v, unsharded %+v", got, want)
	}
	if got.TrainsDelivered >= n {
		t.Errorf("%d trains for %d frames: no multi-frame handoff formed", got.TrainsDelivered, n)
	}
	if sf.Exported() != n || sf.Imported() != n {
		t.Errorf("exported %d, imported %d, want %d", sf.Exported(), sf.Imported(), n)
	}
	for _, b := range sf.boundaries {
		if len(b.queue) != 0 || len(b.frames) != 0 {
			t.Errorf("boundary %s holds %d handoffs, %d frames after drain", b.link.name, len(b.queue), len(b.frames))
		}
		for _, hf := range b.frames[:cap(b.frames)] {
			if hf.payload != nil {
				t.Errorf("boundary %s keeps a payload reference after drain", b.link.name)
			}
		}
	}
	for i, im := range sf.importers {
		for _, hf := range im.slab[:cap(im.slab)] {
			if hf.payload != nil {
				t.Errorf("shard %d slab keeps a payload reference after delivery", i)
			}
		}
	}
}

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q, want one mentioning %q", msg, substr)
		}
	}()
	fn()
}

func TestShardExportOutOfOrderPanics(t *testing.T) {
	sf, _, _ := twoShardFabric(t, SymmetricTrunk(units.Mbps(100), 3*time.Millisecond, 0))
	lnk := sf.Trunk("a", "b")
	pool := sf.Shard(0).pool
	export := func(at sim.Time) {
		f := pool.Get()
		f.Src, f.Dst, f.Size = "x", "y", 512
		lnk.export([]*Frame{f}, at)
	}
	export(sim.Time(5 * time.Millisecond))
	export(sim.Time(5 * time.Millisecond)) // ties are in order
	expectPanic(t, "exported arrival", func() { export(sim.Time(4 * time.Millisecond)) })
}

func TestShardImportPanicsOnPendingSlot(t *testing.T) {
	// Slots are reused at the next barrier, so one that has not fired
	// by then must stop the run rather than deliver the wrong frames.
	sf, px, _ := twoShardFabric(t, SymmetricTrunk(units.Mbps(100), 3*time.Millisecond, 0))
	px.Send("y", 512, nil)
	sf.Shard(0).clock.Run() // export onto the boundary
	end := sim.Time(time.Second)
	sf.importUpTo(end)
	expectPanic(t, "imports pending", func() { sf.importUpTo(end) })
}
