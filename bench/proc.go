package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the whole-process counters; two
// of them bracket a phase.
type procSnap struct {
	Mallocs    uint64
	AllocBytes uint64
	CPU        time.Duration // user + system
	GCCPU      float64       // seconds
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.GCCPU = sample[0].Value.Float64()
	}
	return s
}

// rssPeakMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procMetrics turns two snapshots and an operation count into the proc.*
// per-layer metrics.
func procMetrics(m metricSet, before, after procSnap, ops int) {
	n := float64(ops)
	cpu := (after.CPU - before.CPU).Seconds()
	m.set("proc.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), n))
	m.set("proc.alloc_bytes_per_op", ratio(float64(after.AllocBytes-before.AllocBytes), n))
	m.set("proc.cpu_s_per_op", ratio(cpu, n))
	m.set("proc.gc_cpu_share", ratio(after.GCCPU-before.GCCPU, cpu))
	m.set("proc.rss_peak_mb", rssPeakMB())
}
