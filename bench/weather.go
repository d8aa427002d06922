package main

import (
	"fmt"
	"os"
	"time"
)

// The sandbox is a guest with a few cores on a shared host. Now and then,
// for seconds or for minutes, the host is busy with its other guests, and a
// core of this one that wakes from idle — which a node that waits for
// flushes does a thousand times a second — waits to be given a physical
// CPU. The kernel counts that wait as steal in /proc/stat. When the machine
// is calm the steal share of a sub-window is 0-0.7 %; in an episode it is
// 5-40 %, and what is measured then is the neighbours: in one http-forward
// run the sub-windows with shares of 2, 5, 16 and 29 % delivered 666, 645,
// 537 and 391 inputs/s.
//
// The harness therefore waits for calm weather before it measures, measures
// again what an episode disturbed all the same, and reports over the
// calmest stretches. The counter is the hypervisor's and knows nothing of
// the node, so leaving a stretch out because of it cannot favour one version
// of the code over another. Where /proc/stat has no steal column every share
// reads 0 and nothing waits or is left out.
const (
	// maxSteal is the steal share above which a stretch is disturbed.
	maxSteal = 0.03

	// probeTime is the length of one look at the weather, and calmWait the
	// most a run spends looking, all its gates together: a run must end
	// within 180 s whatever the weather.
	probeTime = 500 * time.Millisecond
	calmWait  = 90 * time.Second
)

// hostCPU is the first line of /proc/stat in clock ticks: what all
// processes of the machine ran, and what the hypervisor gave to other
// guests while this one wanted to run (steal). Zero where there is no
// /proc/stat.
type hostCPU struct{ busy, idle, steal int64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	var f [8]int64 // user nice system idle iowait irq softirq steal
	if _, err := fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d",
		&f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		return hostCPU{}
	}
	return hostCPU{busy: f[0] + f[1] + f[2] + f[5] + f[6], idle: f[3] + f[4], steal: f[7]}
}

// stealShare is the share of the machine's CPU time between two readings
// that the hypervisor withheld.
func stealShare(b, e hostCPU) float64 {
	total := (e.busy - b.busy) + (e.idle - b.idle) + (e.steal - b.steal)
	if total <= 0 {
		return 0
	}
	return float64(e.steal-b.steal) / float64(total)
}

func calm(b, e hostCPU) bool { return stealShare(b, e) <= maxSteal }

// weatherGate makes a run wait for calm weather before a measured phase.
type weatherGate struct{ waited time.Duration }

// await returns when a probe found the machine calm or the run has no
// waiting time left. A probe does what a node waiting for flushes does —
// sleep a millisecond, wake, sleep again — because an idle guest is not
// stolen from and a busy one only mildly: it is the wake-ups that wait.
func (g *weatherGate) await() {
	for {
		t0, before := time.Now(), readHostCPU()
		for time.Since(t0) < probeTime {
			sleep(flushLatency)
		}
		if calm(before, readHostCPU()) || g.waited >= calmWait {
			return
		}
		g.waited += time.Since(t0)
	}
}
