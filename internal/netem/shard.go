package netem

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// This file implements conservative-lookahead parallel execution of a
// GraphFabric: the backbone is partitioned into shards, each shard owns
// its own sim.Clock and runs its event loop in parallel with the rest, and
// the only coupling between shards is the propagation delay of the
// trunks cut by the partition. Because a frame serialized on a cut
// trunk at instant s cannot arrive before s + Delay, and every cut
// trunk's delay is at least the global lookahead L, all shards can
// safely advance one window of width L in parallel: nothing a neighbor
// does during the window can affect this shard before the window ends.
//
// Execution is barrier-synchronous. At each barrier every shard clock
// is parked at the same instant W; the coordinator k-way merges the
// boundary queues' eligible prefixes into the canonical order
// (arrival, trunk, seq), schedules them on their destination shards,
// and releases the shards to run to W + L. The merge key is
// shard-count-invariant — trunk identity and per-trunk serialization
// order do not depend on how the graph was cut — which is what makes
// results byte-identical for any shard count, including one.

// ShardPlan assigns every switch of a GraphSpec to a shard and records
// the conservative lookahead bound the assignment induces.
type ShardPlan struct {
	// Shards is the number of shards actually used (≤ the requested
	// count when the graph has fewer zero-delay-connected components).
	Shards int
	// Assign maps every switch to its shard in [0, Shards).
	Assign map[SwitchID]int
	// Lookahead is the minimum propagation delay over cut trunks —
	// the window width. Zero when the plan has a single shard (no cuts).
	Lookahead time.Duration
}

// PartitionGraph partitions a spec's switches into at most the given
// number of shards. Zero-delay trunks are contracted first (a
// zero-delay cut would leave no lookahead), then the resulting
// components are distributed over the shards balanced by switch count,
// largest component first, deterministically. The effective shard count
// is min(shards, number of components).
func PartitionGraph(gs GraphSpec, shards int) (ShardPlan, error) {
	if err := gs.Validate(); err != nil {
		return ShardPlan{}, err
	}
	if shards < 1 {
		return ShardPlan{}, fmt.Errorf("netem: PartitionGraph with %d shards", shards)
	}

	// Union-find over switches, contracting zero-delay trunks.
	parent := make(map[SwitchID]SwitchID, len(gs.Switches))
	for _, s := range gs.Switches {
		parent[s] = s
	}
	var find func(s SwitchID) SwitchID
	find = func(s SwitchID) SwitchID {
		if parent[s] != s {
			parent[s] = find(parent[s])
		}
		return parent[s]
	}
	for _, t := range gs.Trunks {
		if t.Config.Delay == 0 {
			parent[find(t.A)] = find(t.B)
		}
	}

	// Components in deterministic order: size descending, then lowest
	// member switch.
	members := make(map[SwitchID][]SwitchID)
	for _, s := range gs.Switches {
		r := find(s)
		members[r] = append(members[r], s)
	}
	type comp struct {
		min SwitchID
		sws []SwitchID
	}
	comps := make([]comp, 0, len(members))
	for _, sws := range members {
		sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })
		comps = append(comps, comp{min: sws[0], sws: sws})
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i].sws) != len(comps[j].sws) {
			return len(comps[i].sws) > len(comps[j].sws)
		}
		return comps[i].min < comps[j].min
	})

	k := shards
	if k > len(comps) {
		k = len(comps)
	}
	assign := make(map[SwitchID]int, len(gs.Switches))
	load := make([]int, k)
	for _, c := range comps {
		lightest := 0
		for i := 1; i < k; i++ {
			if load[i] < load[lightest] {
				lightest = i
			}
		}
		for _, s := range c.sws {
			assign[s] = lightest
		}
		load[lightest] += len(c.sws)
	}

	look := time.Duration(0)
	for _, t := range gs.Trunks {
		if assign[t.A] != assign[t.B] {
			if look == 0 || t.Config.Delay < look {
				look = t.Config.Delay
			}
		}
	}
	if k > 1 && look == 0 {
		// Cannot happen: zero-delay trunks never cross components.
		return ShardPlan{}, fmt.Errorf("netem: partition cut a zero-delay trunk")
	}
	return ShardPlan{Shards: k, Assign: assign, Lookahead: look}, nil
}

// handoffFrame is one frame's payload-bearing fields, detached from the
// *Frame (which is recycled into the source shard's pool at export) and
// re-materialized from the destination shard's pool at import.
type handoffFrame struct {
	src, dst NodeID
	size     units.DataSize
	payload  any
	priority bool
	circ     uint32
}

// handoff is one boundary delivery event: a frame or a whole surviving
// train that finished serializing on a cut trunk. arrival is the
// instant it would have been delivered locally; trunk and seq complete
// the canonical merge key. Its n frames wait, in order, in the
// boundary's frame FIFO.
type handoff struct {
	arrival sim.Time
	origin  sim.Time // serialization end on the source shard
	trunk   string   // egress trunk name — shard-count-invariant identity
	seq     uint64   // per-trunk serialization sequence
	n       int      // frames carried
}

// handoffBefore is the canonical shard-merge comparator: arrival time,
// then trunk name, then per-trunk sequence. The key is a total order
// (no two handoffs share all three fields) and every component is
// independent of the shard count, so any interleaving of per-shard
// queues merges into one canonical schedule. FuzzShardMergeOrder pins
// this.
func handoffBefore(a, b *handoff) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	if a.trunk != b.trunk {
		return a.trunk < b.trunk
	}
	return a.seq < b.seq
}

// kmerge yields the handoffs of several queues in canonical order. Each
// queue must already be in that order — one trunk's handoffs carry
// increasing seq and nondecreasing arrival, which the boundary export
// callback enforces — so a binary heap of queue indices, keyed by each
// queue's head, merges them in O(n log k) without sorting. Its slices
// are reused across barriers.
type kmerge struct {
	qs   [][]handoff // unread remainder of each queue
	heap []int       // indices of the nonempty queues
}

// reset starts a merge over qs, which it does not modify.
func (m *kmerge) reset(qs [][]handoff) {
	m.qs = append(m.qs[:0], qs...)
	m.heap = m.heap[:0]
	for q, hs := range qs {
		if len(hs) > 0 {
			m.heap = append(m.heap, q)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// next returns the next handoff in canonical order and the queue it
// came from, or nil once every queue is drained.
func (m *kmerge) next() (int, *handoff) {
	if len(m.heap) == 0 {
		return -1, nil
	}
	q := m.heap[0]
	h := &m.qs[q][0]
	if m.qs[q] = m.qs[q][1:]; len(m.qs[q]) == 0 {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
	return q, h
}

func (m *kmerge) less(i, j int) bool {
	return handoffBefore(&m.qs[m.heap[i]][0], &m.qs[m.heap[j]][0])
}

func (m *kmerge) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(m.heap) {
			return
		}
		if r := c + 1; r < len(m.heap) && m.less(r, c) {
			c = r
		}
		if !m.less(c, i) {
			return
		}
		m.heap[i], m.heap[c] = m.heap[c], m.heap[i]
		i = c
	}
}

// ShardLookaheadCheck is a test-only debug hook: when non-nil it is
// invoked for every imported handoff with the destination shard, that
// shard's parked clock, and the handoff's arrival instant. The
// conservative bound requires arrival to be strictly in the future; the
// property test installs a hook that asserts exactly that. It is called
// only from the coordinator (all shard goroutines parked), so a plain
// package variable is race-free as long as tests set it before running.
var ShardLookaheadCheck func(shard int, clockNow, arrival sim.Time)

// boundary is one cut-trunk direction: the egress link lives on the
// source shard (serialization, queueing, drops and loss all happen
// there, on the source clock), and completed serializations append to
// queue and their frames to frames, both drained by the coordinator at
// barriers. They are touched by the source shard's goroutine during
// windows and by the coordinator between windows; the barrier's
// channel handshake orders the two, so no lock is needed.
type boundary struct {
	link      *Link
	to        int      // destination shard
	dstSw     *gswitch // ingress switch on the destination shard
	seq       uint64
	last      sim.Time // latest exported arrival
	queue     []handoff
	frames    []handoffFrame // FIFO of the queued handoffs' frames
	taken     int            // frames imported at the current barrier
	exported  uint64
	highWater int
}

// importer is one destination shard's import state. At each barrier
// the coordinator copies the frames it imports into slab and schedules
// one slot per handoff; every slot fires inside the following window
// (its arrival is at most the window end), so the next barrier can
// reset slab and reuse the slots. fired counts deliveries to check
// that.
type importer struct {
	g     *GraphFabric
	slab  []handoffFrame
	slots []*importSlot
	used  int // slots scheduled at the last barrier
	fired int // of those, delivered so far
}

// importSlot delivers one imported handoff: n frames at off in the
// importer's slab, entering the destination shard at sw. fire is bound
// once, when the slot is created, so scheduling it never allocates.
type importSlot struct {
	im     *importer
	sw     *gswitch
	off, n int
	fire   func()
}

// slot returns the next free slot, bound to the given delivery.
func (im *importer) slot(sw *gswitch, off, n int) *importSlot {
	if im.used == len(im.slots) {
		s := &importSlot{im: im}
		s.fire = s.deliver
		im.slots = append(im.slots, s)
	}
	s := im.slots[im.used]
	im.used++
	s.sw, s.off, s.n = sw, off, n
	return s
}

// deliver re-materializes the slot's frames from the destination
// shard's pool and routes them from the ingress switch.
func (s *importSlot) deliver() {
	im := s.im
	for i := s.off; i < s.off+s.n; i++ {
		hf := &im.slab[i]
		f := im.g.pool.Get()
		f.Src, f.Dst, f.Size = hf.src, hf.dst, hf.size
		f.Payload, f.Priority, f.Circ = hf.payload, hf.priority, hf.circ
		hf.payload = nil // the frame owns it now
		im.g.routeFrom(s.sw, f)
	}
	im.fired++
}

// nodeInfo is the sharded fabric's global registry entry for an
// attached node.
type nodeInfo struct {
	shard int
	home  SwitchID
	port  *Port
}

// ShardedFabric runs one GraphFabric partitioned across per-core
// shards. Each shard is a real *GraphFabric (same switch, trunk and
// link machinery as the unsharded engine) carrying globally-computed
// next-hop tables; cut trunks become boundary egress links whose
// deliveries hand off through the coordinator. Nodes attach to the
// shard owning their home switch; the global registry keeps routing,
// path queries and stats identical to the unsharded fabric.
type ShardedFabric struct {
	spec GraphSpec
	plan ShardPlan

	shards []*GraphFabric
	// oracle is a full single-clock fabric built from the same spec. It
	// carries no nodes and no traffic — it exists so global routes come
	// from the exact same Dijkstra (same tie-breaks) the unsharded
	// engine runs, and so Home resolution hashes over the same global
	// switch order.
	oracle *GraphFabric

	trunkDir   map[[2]SwitchID]*Link // directed trunk → live link on its owning shard
	trunkOrder [][2]SwitchID         // global deterministic order (matches unsharded Trunks)
	boundaries []*boundary
	nodes      map[NodeID]nodeInfo

	importers []importer // one per shard
	imported  uint64
	eligible  [][]handoff // per-boundary eligible prefixes, reused
	merge     kmerge

	// starts feeds window ends to the workers running shards 1..n-1
	// during RunWindows; each reports on done when its shard reaches
	// the end, and on exited when RunWindows closes its start channel.
	starts []chan sim.Time
	done   chan struct{}
	exited sync.WaitGroup

	// window, when nonzero, overrides plan.Lookahead as the barrier
	// stride. Scenario engines set it to a partition-independent value
	// (GraphSpec.MinPositiveTrunkDelay) so the barrier schedule — and
	// therefore every barrier-timed decision — is identical at every
	// shard count, including one, where the lookahead itself is zero.
	window time.Duration
}

// NewShardedFabric builds the sharded fabric. clocks supplies one clock
// per shard (len(clocks) must equal plan.Shards); each shard's links,
// relays and endpoints schedule exclusively on their own clock. rng
// drives trunk loss processes exactly as in GraphSpec.Build — sharded
// scenarios validate trunk loss away, but the parameter keeps the
// construction signature parallel.
func NewShardedFabric(spec GraphSpec, plan ShardPlan, clocks []*sim.Clock, rng *sim.RNG) *ShardedFabric {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if len(clocks) != plan.Shards {
		panic(fmt.Sprintf("netem: %d clocks for %d shards", len(clocks), plan.Shards))
	}
	sf := &ShardedFabric{
		spec:     spec,
		plan:     plan,
		oracle:   spec.Build(sim.NewClock(), nil),
		trunkDir: make(map[[2]SwitchID]*Link),
		nodes:    make(map[NodeID]nodeInfo),
	}
	sf.oracle.Switches() // force freeze: routes + global order

	cfgOf := make(map[[2]SwitchID]TrunkConfig, 2*len(spec.Trunks))
	for _, t := range spec.Trunks {
		cfgOf[[2]SwitchID{t.A, t.B}] = t.Config
		cfgOf[[2]SwitchID{t.B, t.A}] = t.Config
	}

	// Per-shard fabrics: local switches with global next-hop tables,
	// frozen from birth so nothing recomputes routes over the partial
	// topology. order is the global order so unpinned nodes hash to the
	// same home switch as on the unsharded fabric.
	sf.shards = make([]*GraphFabric, plan.Shards)
	sf.importers = make([]importer, plan.Shards)
	for i := range sf.shards {
		g := &GraphFabric{
			clock:    clocks[i],
			switches: make(map[SwitchID]*gswitch),
			order:    append([]SwitchID(nil), sf.oracle.order...),
			frozen:   true,
			ports:    make(map[NodeID]*Port),
			pinned:   make(map[NodeID]SwitchID),
			homes:    make(map[NodeID]SwitchID),
			pool:     NewFramePool(),
		}
		for node, sw := range spec.Homes {
			g.pinned[node] = sw
		}
		g.remoteHome = func(id NodeID) (SwitchID, bool) {
			ni, ok := sf.nodes[id]
			if !ok {
				return "", false
			}
			return ni.home, true
		}
		shard := i
		g.onAttach = func(id NodeID, home SwitchID, p *Port) {
			sf.nodes[id] = nodeInfo{shard: shard, home: home, port: p}
		}
		sf.shards[i] = g
		sf.importers[i].g = g
	}
	for sw, shard := range plan.Assign {
		g := sf.shards[shard]
		g.switches[sw] = &gswitch{
			id:   sw,
			out:  make(map[SwitchID]*Link),
			next: make(map[SwitchID]SwitchID, len(sf.oracle.switches[sw].next)),
		}
		for dst, nh := range sf.oracle.switches[sw].next {
			g.switches[sw].next[dst] = nh
		}
	}

	// Trunks in the global deterministic order (source switch sorted,
	// then destination sorted) — the same order the unsharded fabric's
	// freeze produces, so Trunks() and every stats table line up.
	for _, a := range sf.oracle.order {
		for _, b := range sf.oracle.neighbors(sf.oracle.switches[a]) {
			from := plan.Assign[a]
			g := sf.shards[from]
			sa := g.switches[a]
			cfg := cfgOf[[2]SwitchID{a, b}]
			lc := LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: cfg.QueueCap,
				LossProb: cfg.LossProb, RNG: rng, TrainSize: cfg.TrainSize}
			var lnk *Link
			if to := plan.Assign[b]; to == from {
				lnk = NewLink(trunkName(a, b), g.clock, lc, &switchIngress{g: g, sw: g.switches[b]})
			} else {
				lnk = NewLink(trunkName(a, b), g.clock, lc, deadEnd{name: trunkName(a, b)})
				bd := &boundary{link: lnk, to: to, dstSw: sf.shards[to].switches[b]}
				pool := g.pool
				clk := g.clock
				lnk.setExport(func(fs []*Frame, arrival sim.Time) {
					// The import merge relies on each boundary
					// exporting in arrival order.
					if arrival.Before(bd.last) {
						panic(fmt.Sprintf("netem: boundary %q exported arrival %v after %v", lnk.name, arrival, bd.last))
					}
					bd.last = arrival
					for _, f := range fs {
						bd.frames = append(bd.frames, handoffFrame{src: f.Src, dst: f.Dst, size: f.Size,
							payload: f.Payload, priority: f.Priority, circ: f.Circ})
						f.Payload = nil // payload migrates; the frame dies here
						pool.Put(f)
					}
					bd.queue = append(bd.queue, handoff{
						arrival: arrival, origin: clk.Now(),
						trunk: lnk.name, seq: bd.seq, n: len(fs),
					})
					bd.seq++
					bd.exported += uint64(len(fs))
					if len(bd.queue) > bd.highWater {
						bd.highWater = len(bd.queue)
					}
				})
				sf.boundaries = append(sf.boundaries, bd)
			}
			lnk.UsePool(g.pool, false)
			sa.out[b] = lnk
			g.trunks = append(g.trunks, lnk)
			sf.trunkDir[[2]SwitchID{a, b}] = lnk
			sf.trunkOrder = append(sf.trunkOrder, [2]SwitchID{a, b})
		}
	}
	return sf
}

// deadEnd is the destination handler of a boundary egress link. The
// export path intercepts every surviving frame at serialization end, so
// local delivery on such a link is a bug.
type deadEnd struct{ name string }

func (d deadEnd) Deliver(*Frame) {
	panic(fmt.Sprintf("netem: boundary link %q delivered locally", d.name))
}

// Plan returns the shard plan the fabric was built from.
func (sf *ShardedFabric) Plan() ShardPlan { return sf.plan }

// Lookahead returns the conservative window width.
func (sf *ShardedFabric) Lookahead() time.Duration { return sf.plan.Lookahead }

// SetWindow overrides the barrier stride. The stride must be positive
// and must not exceed the plan's lookahead (when the plan has cuts) —
// a wider window would let a neighbor's frame arrive inside it,
// violating the conservative bound. Single-shard plans accept any
// positive stride: with no cuts there is nothing to violate, and the
// stride only pins where barriers fall.
func (sf *ShardedFabric) SetWindow(d time.Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("netem: SetWindow(%v)", d))
	}
	if l := sf.plan.Lookahead; l > 0 && d > l {
		panic(fmt.Sprintf("netem: window %v exceeds lookahead %v", d, l))
	}
	sf.window = d
}

// NumShards returns the effective shard count.
func (sf *ShardedFabric) NumShards() int { return len(sf.shards) }

// Shard returns shard i's fabric. Relays and endpoints attach through
// it; everything it schedules lands on shard i's clock.
func (sf *ShardedFabric) Shard(i int) *GraphFabric { return sf.shards[i] }

// ShardOfSwitch returns the shard owning a switch.
func (sf *ShardedFabric) ShardOfSwitch(sw SwitchID) int { return sf.plan.Assign[sw] }

// HomeOf returns the switch a node homes (or would home) to, resolved
// exactly as the unsharded fabric resolves it.
func (sf *ShardedFabric) HomeOf(id NodeID) SwitchID { return sf.oracle.Home(id) }

// ShardOf returns the shard a node attaches (or would attach) to.
func (sf *ShardedFabric) ShardOf(id NodeID) int { return sf.plan.Assign[sf.HomeOf(id)] }

// Trunks returns every directed trunk link in the same global order the
// unsharded fabric reports, so per-trunk stats tables are byte-
// compatible.
func (sf *ShardedFabric) Trunks() []*Link {
	out := make([]*Link, len(sf.trunkOrder))
	for i, key := range sf.trunkOrder {
		out[i] = sf.trunkDir[key]
	}
	return out
}

// Trunk returns the directed trunk link a → b, or nil.
func (sf *ShardedFabric) Trunk(a, b SwitchID) *Link { return sf.trunkDir[[2]SwitchID{a, b}] }

// UnknownDst sums the unknown-destination drops across shards.
func (sf *ShardedFabric) UnknownDst() uint64 {
	var n uint64
	for _, g := range sf.shards {
		n += g.unknownDst
	}
	return n
}

// Unroutable sums the no-route drops across shards.
func (sf *ShardedFabric) Unroutable() uint64 {
	var n uint64
	for _, g := range sf.shards {
		n += g.unroutable
	}
	return n
}

// Exported returns the total frames handed off across shard
// boundaries; Imported the total re-materialized on their destination
// shards. After a run drains, the two are equal and every boundary
// queue is empty — the leak-balance tests assert this.
func (sf *ShardedFabric) Exported() uint64 {
	var n uint64
	for _, b := range sf.boundaries {
		n += b.exported
	}
	return n
}

// Imported returns the total frames re-materialized from boundary
// handoffs.
func (sf *ShardedFabric) Imported() uint64 { return sf.imported }

// QueueHighWater returns the deepest any boundary queue ever got, in
// handoff records. Conservative windows bound it naturally: a queue
// holds at most the frames one trunk serializes in about two windows.
func (sf *ShardedFabric) QueueHighWater() int {
	max := 0
	for _, b := range sf.boundaries {
		if b.highWater > max {
			max = b.highWater
		}
	}
	return max
}

// Idle reports whether nothing remains to run: every shard's event
// queue is empty and no handoff is pending. Scenario drivers use it to
// stop at a barrier once all work has drained.
func (sf *ShardedFabric) Idle() bool {
	for _, b := range sf.boundaries {
		if len(b.queue) > 0 {
			return false
		}
	}
	for _, g := range sf.shards {
		if _, ok := g.clock.Next(); ok {
			return false
		}
	}
	return true
}

// RunWindows advances every shard in barrier-synchronous conservative
// windows of the plan's lookahead until the horizon. barrier, when
// non-nil, runs at every window boundary — including t = 0 before the
// first window and the horizon after the last — with all shard clocks
// parked at the barrier instant; it is the only place control-plane
// work (circuit builds, teardowns, outcome collection) may touch more
// than one shard. Returning false stops the run at that barrier.
// RunWindows returns the instant it stopped at.
func (sf *ShardedFabric) RunWindows(horizon sim.Time, barrier func(now sim.Time) bool) sim.Time {
	sf.startWorkers()
	defer sf.stopWorkers()
	w := sim.Time(0)
	for {
		if barrier != nil && !barrier(w) {
			return w
		}
		if w >= horizon {
			return w
		}
		end := horizon
		stride := sf.window
		if stride == 0 {
			stride = sf.plan.Lookahead
		}
		if stride > 0 {
			if e := w.Add(stride); e.Before(end) {
				end = e
			}
		}
		sf.importUpTo(end)
		sf.runWindow(end)
		w = end
	}
}

// importUpTo drains every boundary's handoffs with arrival ≤ end,
// k-way merges them into the canonical order, and schedules their
// deliveries on the destination shards. Delivery stats are credited to
// the egress link here, at the barrier, while its owning shard is
// parked — crediting them inside the destination shard's window would
// race with the source shard serializing more frames.
func (sf *ShardedFabric) importUpTo(end sim.Time) {
	for i := range sf.importers {
		im := &sf.importers[i]
		if im.fired != im.used {
			panic(fmt.Sprintf("netem: shard %d has %d of %d imports pending at a barrier", i, im.used-im.fired, im.used))
		}
		im.used, im.fired = 0, 0
		im.slab = im.slab[:0]
	}
	eligible := sf.eligible[:0]
	for _, b := range sf.boundaries {
		n := 0
		for n < len(b.queue) && !b.queue[n].arrival.After(end) {
			n++
		}
		eligible = append(eligible, b.queue[:n])
	}
	sf.eligible = eligible

	sf.merge.reset(eligible)
	for q, h := sf.merge.next(); h != nil; q, h = sf.merge.next() {
		b := sf.boundaries[q]
		im := &sf.importers[b.to]
		if ShardLookaheadCheck != nil {
			ShardLookaheadCheck(b.to, im.g.clock.Now(), h.arrival)
		}
		// A boundary's handoffs leave the merge in queue order, so
		// its next h.n unimported frames are this handoff's.
		frames := b.frames[b.taken : b.taken+h.n]
		b.taken += h.n
		var bytes units.DataSize
		for i := range frames {
			bytes += frames[i].size
		}
		b.link.stats.CellsDelivered += uint64(h.n)
		b.link.stats.TrainsDelivered++
		b.link.stats.BytesOut += bytes
		sf.imported += uint64(h.n)
		s := im.slot(b.dstSw, len(im.slab), h.n)
		im.slab = append(im.slab, frames...)
		im.g.clock.AtOrigin(h.arrival, h.origin, s.fire)
	}

	// Compact: drop the imported prefixes, clearing the vacated frame
	// slots so their payloads can be collected.
	for q, b := range sf.boundaries {
		if n := len(eligible[q]); n > 0 {
			b.queue = b.queue[:copy(b.queue, b.queue[n:])]
			rest := copy(b.frames, b.frames[b.taken:])
			clear(b.frames[rest:])
			b.frames = b.frames[:rest]
			b.taken = 0
		}
	}
}

// startWorkers starts one goroutine per shard beyond the first; each
// runs its shard's clock to every window end it receives.
func (sf *ShardedFabric) startWorkers() {
	sf.starts = make([]chan sim.Time, len(sf.shards)-1)
	done := make(chan struct{}, len(sf.starts))
	sf.done = done
	for i := range sf.starts {
		start, clock := make(chan sim.Time), sf.shards[i+1].clock
		sf.starts[i] = start
		sf.exited.Add(1)
		go func() {
			defer sf.exited.Done()
			for end := range start {
				clock.RunUntil(end)
				done <- struct{}{}
			}
		}()
	}
}

// stopWorkers stops the workers and waits for them to exit.
func (sf *ShardedFabric) stopWorkers() {
	for _, start := range sf.starts {
		close(start)
	}
	sf.exited.Wait()
	sf.starts = nil
}

// runWindow advances every shard to end: shard 0 on the calling
// goroutine, the others on their workers. Parking the workers between
// windows instead of spawning goroutines keeps a window allocation-
// free; with one shard there is no worker and no synchronization cost.
func (sf *ShardedFabric) runWindow(end sim.Time) {
	for _, start := range sf.starts {
		start <- end
	}
	sf.shards[0].clock.RunUntil(end)
	for range sf.starts {
		<-sf.done
	}
}

// PathTransits returns the directed trunk links a frame from a to b
// crosses, resolved over the global routes — the links returned live on
// their owning shards. Panics on unattached nodes or a disconnected
// backbone, like the unsharded fabric.
func (sf *ShardedFabric) PathTransits(a, b NodeID) []*Link {
	na, aok := sf.nodes[a]
	nb, bok := sf.nodes[b]
	if !aok || !bok {
		panic(fmt.Sprintf("netem: PathTransits between unattached nodes %q, %q", a, b))
	}
	sws := sf.oracle.route(na.home, nb.home)
	if sws == nil {
		panic(fmt.Sprintf("netem: no route between %q (home %q) and %q (home %q)", a, na.home, b, nb.home))
	}
	links := make([]*Link, 0, len(sws)-1)
	for i := 0; i+1 < len(sws); i++ {
		links = append(links, sf.trunkDir[[2]SwitchID{sws[i], sws[i+1]}])
	}
	return links
}

// PathOneWay returns the analytic no-queueing one-way latency from a to
// b, exactly as the unsharded fabric computes it.
func (sf *ShardedFabric) PathOneWay(a, b NodeID, size units.DataSize) time.Duration {
	na, aok := sf.nodes[a]
	nb, bok := sf.nodes[b]
	if !aok || !bok {
		panic(fmt.Sprintf("netem: PathOneWay between unattached nodes %q, %q", a, b))
	}
	total := na.port.cfg.UpRate.TransmissionTime(size) + na.port.cfg.Delay +
		nb.port.cfg.DownRate.TransmissionTime(size) + nb.port.cfg.Delay
	for _, l := range sf.PathTransits(a, b) {
		total += l.Config().Rate.TransmissionTime(size) + l.Config().Delay
	}
	return total
}

// PathRTT returns the analytic round-trip time between two attached
// nodes.
func (sf *ShardedFabric) PathRTT(a, b NodeID, size units.DataSize) time.Duration {
	return sf.PathOneWay(a, b, size) + sf.PathOneWay(b, a, size)
}

// BottleneckRate returns the minimum forwarding rate along the node
// sequence, mirroring GraphFabric.BottleneckRate over the global
// topology.
func (sf *ShardedFabric) BottleneckRate(path []NodeID) units.DataRate {
	if len(path) < 2 {
		panic("netem: BottleneckRate needs at least two nodes")
	}
	min := units.DataRate(1<<63 - 1)
	for i := 0; i < len(path)-1; i++ {
		na, aok := sf.nodes[path[i]]
		nb, bok := sf.nodes[path[i+1]]
		if !aok || !bok {
			panic(fmt.Sprintf("netem: BottleneckRate over unattached hop %q→%q", path[i], path[i+1]))
		}
		if na.port.cfg.UpRate < min {
			min = na.port.cfg.UpRate
		}
		if nb.port.cfg.DownRate < min {
			min = nb.port.cfg.DownRate
		}
		for _, l := range sf.PathTransits(path[i], path[i+1]) {
			if r := l.Config().Rate; r < min {
				min = r
			}
		}
	}
	return min
}

// Port returns an attached node's port regardless of shard, or nil.
func (sf *ShardedFabric) Port(id NodeID) *Port {
	ni, ok := sf.nodes[id]
	if !ok {
		return nil
	}
	return ni.port
}
