package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The end-to-end figures are measured in process CPU time, not wall
// time. A virtual machine's hypervisor takes CPU away from it ("steal")
// in bursts: on a 2-CPU VM with 5-30% steal, wall-clock reads/s of one
// binary and seed swung by 25% between runs while reads per CPU-second
// stayed within 5%. Wall-clock figures and the host's steal share are
// printed alongside for reference.

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the host CPU counters of /proc/stat: ticks stolen by
// the hypervisor and all ticks. ok is false where procfs is missing.
func hostTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// clock marks the start of a measured interval in wall, process CPU
// and host steal terms.
type clock struct {
	wall          time.Time
	cpu           time.Duration
	steal, ticks  int64
	haveHostTicks bool
}

func startClock() clock {
	c := clock{wall: time.Now(), cpu: cpuTime()}
	c.steal, c.ticks, c.haveHostTicks = hostTicks()
	return c
}

// stealShare is the share of host CPU time the hypervisor took since c
// started, -1 when unknown.
func (c clock) stealShare() float64 {
	steal, ticks, ok := hostTicks()
	if !ok || !c.haveHostTicks || ticks == c.ticks {
		return -1
	}
	return float64(steal-c.steal) / float64(ticks-c.ticks)
}
