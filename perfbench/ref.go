package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dtexl/internal/stats"
)

// The reference probe measures how fast the shared host runs at the
// moment, so that every timing can be reported at reference speed: the
// host time times refNominal over the readings taken around it. The
// probe runs none of the repository's code, so a change to the program
// moves the reported times in full. README.md (Noise controls) gives
// the measurements behind its design; in short, six runs of serve-cold
// with one seed spread 0.083 (IQR / median of p50_ms) in host time and
// 0.014 at reference speed.

const (
	// refWords is each probe thread's table: 4 MiB of uint32.
	refWords = 1 << 20
	// refALU and refMem fix the kernel's work: integer mixing, then
	// table updates at pseudo-random words, each about half its time.
	refALU = 500_000
	refMem = 50_000
	// refReps is how many passes make a reading; the median pass is
	// kept, so an interrupt during one does not move it.
	refReps = 5
	// refNominal is a typical reading on the development VM (2-vCPU
	// Xeon). Reported times read as host time at that speed.
	refNominal = 1400 * time.Microsecond
)

var (
	refOnce   sync.Once
	refTables [workers][]uint32
	refSink   [workers]uint32
)

// refKernel is the probe's fixed work on one table.
func refKernel(tab []uint32) uint32 {
	x := uint32(2463534242)
	for i := 0; i < refALU; i++ { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	for i := 0; i < refMem; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ tab[x&(refWords-1)]) & (refWords - 1)
		tab[j] += x
	}
	return x
}

// refProbe takes one reading: the mean of the kernel's time on one core
// alone and on every core at once. The workloads run partly on one core
// (the suite's serial renders) and partly on both (two workers or
// clients), and the host can slow one case without the other, for
// instance when it places the two vCPUs on one physical core.
func refProbe() time.Duration {
	refOnce.Do(func() {
		for g := range refTables {
			refTables[g] = make([]uint32, refWords)
		}
	})
	return (refAlone() + refTogether()) / 2
}

// refAlone is the median of refReps passes of the kernel on the calling
// thread.
func refAlone() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	passes := make([]float64, refReps)
	for i := range passes {
		passes[i] = float64(timeKernel(0))
	}
	return time.Duration(stats.Median(passes))
}

// refTogether runs refReps passes with one thread per core, each pinned
// to its own allowed CPU where the system allows, all starting a pass
// together; a pass is the mean of the threads' times, and the median
// pass is kept.
func refTogether() time.Duration {
	cpus := allowedCPUs()
	var (
		ready atomic.Int64
		took  [workers][refReps]time.Duration
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if len(cpus) >= workers {
				if orig, ok := getAffinity(); ok {
					var m cpuMask
					m[cpus[g]/64] |= 1 << (cpus[g] % 64)
					if setAffinity(m) {
						defer setAffinity(orig)
					}
				}
			}
			for i := 0; i < refReps; i++ {
				ready.Add(1)
				for ready.Load() < int64(workers*(i+1)) {
				}
				took[g][i] = timeKernel(g)
			}
		}(g)
	}
	wg.Wait()
	passes := make([]float64, refReps)
	for i := range passes {
		for g := range took {
			passes[i] += float64(took[g][i]) / workers
		}
	}
	return time.Duration(stats.Median(passes))
}

// timeKernel runs the kernel once on table g and times it by the
// thread's CPU clock where the system has one: CPU time still slows with
// the host, but not when the kernel briefly runs another thread on the
// same vCPU. The caller holds its OS thread.
func timeKernel(g int) time.Duration {
	c0, start := threadCPU(), time.Now()
	refSink[g] += refKernel(refTables[g])
	if c1 := threadCPU(); c0 >= 0 && c1 >= 0 {
		return c1 - c0
	}
	return time.Since(start)
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the calling thread's CPU time, or -1 where the
// system cannot tell.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU set for sched_getaffinity/sched_setaffinity.
type cpuMask [16]uint64

// getAffinity and setAffinity read and set the calling thread's CPU set.
func getAffinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(m cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return errno == 0
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() []int {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m, ok := getAffinity()
	if !ok {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// refPoint is one reading, with the host time measured since the
// previous reading of the round.
type refPoint struct {
	gap time.Duration
	ref time.Duration
}

// roundRef weights each pair of neighbouring readings by the host time
// measured between them, so a long stretch of a round counts for as
// much as it lasted. A round's first reading carries no gap.
func roundRef(ps []refPoint) float64 {
	var num, den float64
	for i := 1; i < len(ps); i++ {
		w := float64(ps[i].gap)
		num += w * float64(ps[i-1].ref+ps[i].ref) / 2
		den += w
	}
	if den == 0 {
		var sum float64
		for _, p := range ps {
			sum += float64(p.ref)
		}
		return sum / float64(len(ps))
	}
	return num / den
}
