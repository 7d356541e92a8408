package iosched

// Scale-oriented benchmarks of the flat event-heap engine:
// BenchmarkEngineEvents tracks events/sec at up to 10,000 streams (the
// committed BENCH_*.json baselines gate regressions in CI), and
// BenchmarkRefEngineEvents sizes it against the goroutine reference.

import (
	"fmt"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// benchWorld boots a kernel with nDevs queued fake devices for benchmark
// runs; devices are cheap so the measurement is engine overhead, not
// device-model arithmetic.
func benchWorld(b *testing.B, nDevs int) (*vfs.Kernel, []device.ID) {
	k, _, first := testKernel(b, simclock.Millisecond)
	ids := []device.ID{first}
	for d := 1; d < nDevs; d++ {
		fd := &fakeDev{id: device.ID(1 + d), cost: simclock.Millisecond}
		ids = append(ids, k.AttachDevice(fd))
	}
	return k, ids
}

// benchProg is a stream issuing ops raw device reads spread across the
// device list, with offsets scattered enough to exercise the SSTF index.
func benchProg(ids []device.ID, s, ops int) Program {
	i := 0
	return ProgramFunc(func(h *Handle, prev Result) Op {
		if i == ops {
			return Exit(nil)
		}
		d := ids[(s+i)%len(ids)]
		off := int64((s*2654435761+i*40961)&0xFFFFF) * 512
		i++
		return DevRead(d, off, 4096)
	})
}

const benchOpsPerStream = 16

// BenchmarkEngineEvents measures heap-engine throughput as events/sec for
// n Program streams over 16 queued devices under SSTF.
func BenchmarkEngineEvents(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k, ids := benchWorld(b, 16)
			var events uint64
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				b.StopTimer()
				e := NewEngine(k)
				for _, id := range ids {
					e.Queue(id, NewScheduler("sstf"))
				}
				for s := 0; s < n; s++ {
					e.AddStream(simclock.Duration(s%97)*50*simclock.Microsecond,
						benchProg(ids, s, benchOpsPerStream))
				}
				b.StartTimer()
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				events += e.Events()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkRefEngineEvents runs the same workload on the goroutine
// reference engine, sizing the rewrite's win. Capped at 1,000 streams:
// the stack-per-stream design this replaced is the bottleneck being
// demonstrated, not worth minutes of CI at 10,000.
func BenchmarkRefEngineEvents(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k, ids := benchWorld(b, 16)
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				b.StopTimer()
				e := newRefEngine(k)
				for _, id := range ids {
					e.Queue(id, newRefScheduler("sstf"))
				}
				for s := 0; s < n; s++ {
					s := s
					e.AddStream(simclock.Duration(s%97)*50*simclock.Microsecond, func(h *refHandle) error {
						for i := 0; i < benchOpsPerStream; i++ {
							d := ids[(s+i)%len(ids)]
							off := int64((s*2654435761+i*40961)&0xFFFFF) * 512
							if err := device.ReadErr(k.Devices.Get(d), k.Clock, off, 4096); err != nil {
								return err
							}
						}
						return nil
					})
				}
				b.StartTimer()
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
