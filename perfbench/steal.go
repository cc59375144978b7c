package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor runs other guests on this
// machine's CPUs part of the time ("steal"), and every wall-clock interval
// stretches by that much. The end-to-end timings therefore remove the
// stolen share: an interval that lasted d while a share s of the machine's
// CPU time was stolen counts as d·(1−s), the time it would have taken on an
// uncontended host. On a dedicated machine s is 0 and nothing changes.

// cpuSteal is a snapshot of the machine-wide CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat.
type cpuSteal struct{ total, steal uint64 }

func readCPUSteal() cpuSteal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSteal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSteal{}
	}
	var c cpuSteal
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuSteal{}
		}
		c.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			c.steal = v
		}
	}
	return c
}

// share returns the stolen share of the CPU time between start and c, or 0
// when /proc/stat was unreadable or no time passed.
func (c cpuSteal) share(start cpuSteal) float64 {
	if start.total == 0 || c.total <= start.total || c.steal < start.steal {
		return 0
	}
	return float64(c.steal-start.steal) / float64(c.total-start.total)
}

// instant is a wall-clock time together with the CPU counters at that time.
type instant struct {
	t   time.Time
	cpu cpuSteal
}

func now() instant { return instant{t: time.Now(), cpu: readCPUSteal()} }

// wall returns the wall time from start to i.
func (i instant) wall(start instant) time.Duration { return i.t.Sub(start.t) }

// unstolen returns the wall time from start to i less its stolen share.
func (i instant) unstolen(start instant) time.Duration {
	return unstolenOf(i.wall(start), start, i)
}

// unstolenOf scales d, measured within the interval from start to end, by
// the unstolen share of that interval.
func unstolenOf(d time.Duration, start, end instant) time.Duration {
	return time.Duration(float64(d) * (1 - end.cpu.share(start.cpu)))
}
