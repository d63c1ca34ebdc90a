package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// busyOtherFrac is the share of the machine's CPU capacity that other
// processes (and the hypervisor's steal) may take during a run before the
// run is flagged as measured on a busy host.
const busyOtherFrac = 0.10

// clkTck is USER_HZ, the unit of /proc/stat.
const clkTck = 100

// hostSample is one reading of the host counters the noise record needs.
type hostSample struct {
	at    time.Time
	busy  uint64 // /proc/stat non-idle ticks, all CPUs, steal included
	steal uint64
	self  time.Duration // this process's user+system CPU
	load1 float64
}

func readHost() hostSample {
	h := hostSample{at: time.Now(), self: processCPU()}
	h.busy, h.steal = procStat()
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// procStat reads the machine's non-idle ticks (steal included) and steal
// ticks, summed over all CPUs, from /proc/stat; zeros where it is missing.
func procStat() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		if i == 4 || i == 5 {
			continue // idle, iowait
		}
		busy += v
		if i == 8 {
			steal = v
		}
	}
	return busy, steal
}

// opClock times one operation in host time net of hypervisor steal. On a
// shared VM, time the hypervisor gives other tenants was the main
// run-to-run noise (up to a quarter of a run's wall time); subtracting the
// steal /proc/stat counted during the operation, over all CPUs, brought the
// spread of identical sim-* runs from 9–14% down to 2–10%. At most half of
// the wall time is subtracted; a run stolen from that heavily is flagged
// busy.
type opClock struct {
	t     time.Time
	steal uint64
}

func startOp() opClock {
	_, st := procStat()
	return opClock{time.Now(), st}
}

// stop returns the wall time since start and that time net of steal.
func (c opClock) stop() (wall, net time.Duration) {
	wall = time.Since(c.t)
	_, st := procStat()
	stolen := time.Duration(st-c.steal) * time.Second / clkTck
	return wall, wall - min(stolen, wall/2)
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostNoise is the per-run host record: what the run had to itself.
type hostNoise struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	LoadStart    float64 `json:"load1_start"`
	LoadEnd      float64 `json:"load1_end"`
	WallS        float64 `json:"wall_s"`
	SelfCPUS     float64 `json:"self_cpu_s"`
	OtherCPUS    float64 `json:"other_cpu_s"`
	StealS       float64 `json:"steal_s"`
	OtherCPUFrac float64 `json:"other_cpu_frac"`
	Busy         bool    `json:"busy"`
}

// noiseBetween compares two host readings: CPU the whole machine spent,
// less this process's own, is what other processes took from the run.
func noiseBetween(a, b hostSample) hostNoise {
	n := hostNoise{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadStart: a.load1, LoadEnd: b.load1,
		WallS:    b.at.Sub(a.at).Seconds(),
		SelfCPUS: (b.self - a.self).Seconds(),
		StealS:   float64(b.steal-a.steal) / clkTck,
	}
	n.OtherCPUS = max(float64(b.busy-a.busy)/clkTck-n.SelfCPUS, 0)
	if capacity := n.WallS * float64(n.NumCPU); capacity > 0 {
		n.OtherCPUFrac = n.OtherCPUS / capacity
	}
	n.Busy = n.OtherCPUFrac > busyOtherFrac
	return n
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
