package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the process counters a timed phase is
// measured with: CPU from the kernel, allocation and GC CPU from the Go
// runtime.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user+sys, from getrusage
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64 // seconds, runtime estimate
}

var procMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		allocObjs:  ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
	}
}

// procDelta is what a timed phase cost the process.
type procDelta struct {
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		gcCPU:      time.Duration((b.gcCPU - a.gcCPU) * float64(time.Second)),
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so the peak that peakRSSMB reads afterwards belongs
// to what runs from here on, not to set-up repetitions already torn
// down. It reports whether the kernel accepted the reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
