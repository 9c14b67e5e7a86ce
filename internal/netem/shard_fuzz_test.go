package netem

import (
	"fmt"
	"sort"
	"testing"

	"circuitstart/internal/sim"
)

// fuzzHandoffs renders a fuzz input into a deterministic batch of
// handoffs with deliberate arrival-time collisions: arrivals are drawn
// from a tiny range so many handoffs tie on time and the comparator
// must fall through to (trunk, seq). Per-trunk sequences are assigned
// in generation order, mirroring how boundaries stamp them.
func fuzzHandoffs(seed int64, n int, trunks int) []handoff {
	if trunks < 1 {
		trunks = 1
	}
	rng := sim.NewRNG(seed, "fuzz-merge")
	seqs := make(map[string]uint64, trunks)
	out := make([]handoff, n)
	for i := range out {
		trunk := fmt.Sprintf("trunk:sw%02d>sw%02d", rng.Int63n(int64(trunks)), rng.Int63n(int64(trunks)))
		out[i] = handoff{
			arrival: sim.Time(rng.Int63n(8)), // tiny range: force ties
			origin:  sim.Time(rng.Int63n(8)),
			trunk:   trunk,
			seq:     seqs[trunk],
		}
		seqs[trunk]++
	}
	return out
}

// perTrunkQueues renders a fuzz input into one queue per trunk, each in
// the order a boundary exports: arrivals nondecreasing from a tiny
// range (so queues tie with each other) and seq counting up. Queue order
// is shuffled against trunk-name order, and some queues stay empty.
func perTrunkQueues(seed int64, n, trunks int, shuf *sim.RNG) [][]handoff {
	rng := sim.NewRNG(seed, "fuzz-merge-queues")
	qs := make([][]handoff, trunks+1)
	arrival := make([]sim.Time, len(qs))
	names := make([]string, len(qs))
	for i := range names {
		names[i] = fmt.Sprintf("trunk:sw%02d>sw%02d", i, (i+1)%len(names))
	}
	for i := len(names) - 1; i > 0; i-- {
		j := int(shuf.Int63n(int64(i + 1)))
		names[i], names[j] = names[j], names[i]
	}
	for i := 0; i < n; i++ {
		q := int(rng.Int63n(int64(trunks))) // queue trunks stays empty
		arrival[q] += sim.Time(rng.Int63n(3))
		qs[q] = append(qs[q], handoff{
			arrival: arrival[q],
			origin:  sim.Time(rng.Int63n(8)),
			trunk:   names[q],
			seq:     uint64(len(qs[q])),
			n:       int(rng.Int63n(4)) + 1,
		})
	}
	return qs
}

func sortHandoffs(hs []handoff) {
	sort.Slice(hs, func(i, j int) bool { return handoffBefore(&hs[i], &hs[j]) })
}

// FuzzShardMergeOrder pins the property the whole determinism contract
// leans on: handoffBefore is a strict total order over any batch of
// handoffs, so the coordinator's merged import schedule is the same no
// matter how the batch was split across boundary queues — i.e. no
// matter where the partition fell. The fuzzer varies the batch, the
// tie density and two interleavings; the test asserts both interleavings
// sort to the identical sequence, that the comparator is irreflexive,
// asymmetric and antisymmetric-total on every pair, and that the
// coordinator's k-way merge of per-trunk queues equals the sort.
func FuzzShardMergeOrder(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3), int64(2))
	f.Add(int64(42), uint8(64), uint8(1), int64(7))
	f.Add(int64(-9), uint8(2), uint8(8), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, trunks uint8, shuffleSeed int64) {
		batch := fuzzHandoffs(seed, int(n), int(trunks)%8+1)

		// Two different interleavings of the same batch — stand-ins for
		// two different shard partitions delivering the same handoffs
		// through differently-grouped boundary queues.
		a := append([]handoff(nil), batch...)
		b := append([]handoff(nil), batch...)
		shuf := sim.NewRNG(shuffleSeed, "fuzz-merge-shuffle")
		for i := len(b) - 1; i > 0; i-- {
			j := int(shuf.Int63n(int64(i + 1)))
			b[i], b[j] = b[j], b[i]
		}

		sortHandoffs(a)
		sortHandoffs(b)
		for i := range a {
			if a[i].arrival != b[i].arrival || a[i].trunk != b[i].trunk || a[i].seq != b[i].seq {
				t.Fatalf("merge order depends on the interleaving at %d: %+v vs %+v", i, a[i], b[i])
			}
		}

		// Comparator laws: irreflexive, asymmetric, and total up to key
		// equality — every distinct pair is strictly ordered one way.
		for i := range a {
			if handoffBefore(&a[i], &a[i]) {
				t.Fatalf("handoffBefore not irreflexive at %d: %+v", i, a[i])
			}
			for j := i + 1; j < len(a); j++ {
				ij, ji := handoffBefore(&a[i], &a[j]), handoffBefore(&a[j], &a[i])
				if ij && ji {
					t.Fatalf("handoffBefore not asymmetric: %+v vs %+v", a[i], a[j])
				}
				sameKey := a[i].arrival == a[j].arrival && a[i].trunk == a[j].trunk && a[i].seq == a[j].seq
				if !ij && !ji && !sameKey {
					t.Fatalf("distinct handoffs unordered: %+v vs %+v", a[i], a[j])
				}
			}
		}

		// The sorted order must respect the comparator pairwise — the
		// transitivity check sort.Slice itself cannot promise.
		for i := 0; i+1 < len(a); i++ {
			if handoffBefore(&a[i+1], &a[i]) {
				t.Fatalf("sorted sequence violates comparator at %d", i)
			}
		}

		// The k-way merge the coordinator runs must reproduce the sort
		// on per-trunk queues that satisfy its precondition
		// (nondecreasing arrival, increasing seq), whatever the queue
		// order and however many queues are empty.
		qs := perTrunkQueues(seed, int(n), int(trunks)%8+1, shuf)
		var want []handoff
		for _, q := range qs {
			want = append(want, q...)
		}
		sortHandoffs(want)
		var m kmerge
		for round := 0; round < 2; round++ { // the second round reuses the merge's scratch
			m.reset(qs)
			var got []handoff
			for q, h := m.next(); h != nil; q, h = m.next() {
				if h.trunk != qs[q][0].trunk {
					t.Fatalf("merge reported queue %d for a handoff on %s", q, h.trunk)
				}
				got = append(got, *h)
			}
			if len(got) != len(want) {
				t.Fatalf("merge yielded %d handoffs, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("merge differs from sort at %d: %+v vs %+v", i, got[i], want[i])
				}
			}
		}
	})
}
