package benchcases

import "testing"

// The wrappers CI runs. BenchmarkClockSchedule, BenchmarkTimerRearm and
// BenchmarkLinkTransit are gated to 0 allocs/op by the zero-alloc CI
// step; the bodies are the exact code `circuitsim bench` snapshots.

func BenchmarkClockSchedule(b *testing.B)    { ClockSchedule(b) }
func BenchmarkTimerRearm(b *testing.B)       { TimerRearm(b) }
func BenchmarkLinkTransit(b *testing.B)      { LinkTransit(b) }
func BenchmarkLinkTransitTrain(b *testing.B) { LinkTransitTrain(b) }
func BenchmarkLinkInflight(b *testing.B)     { LinkInflight(b) }
func BenchmarkStarTransit(b *testing.B)      { StarTransit(b) }
func BenchmarkOnionWrap(b *testing.B)        { OnionWrap(b) }
func BenchmarkOnionUnwrap(b *testing.B)      { OnionUnwrap(b) }

func BenchmarkSchedulerEnqueueDequeue(b *testing.B) { SchedulerEnqueueDequeue(b) }
func BenchmarkShardHandoff(b *testing.B)            { ShardHandoff(b) }

func BenchmarkSingleTransfer(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale transfer")
	}
	SingleTransfer(b)
}

func BenchmarkShardedChurn1(b *testing.B) {
	if testing.Short() {
		b.Skip("consensus-scale churn trial")
	}
	ShardedChurn1(b)
}

func BenchmarkShardedChurn4(b *testing.B) {
	if testing.Short() {
		b.Skip("consensus-scale churn trial")
	}
	ShardedChurn4(b)
}
