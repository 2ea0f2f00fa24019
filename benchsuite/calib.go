package main

import (
	"runtime"
	"sync"
)

// Host-speed calibration. The reference host is a shared 2-vCPU VM
// whose neighbours slow it by up to 1.8x for seconds to minutes at a
// time. A fixed kernel timed right before each measurement slows with
// it. Over eight runs in a busy hour, raw tasks/s spread by 19%
// (paper-sweep), 17% (stream-5k) and 22% (burst-mix); scaled by the
// kernel run on every P at once, by 6%, 4% and 10%. In a calm hour raw
// and scaled values both spread by 2-4%. So every host time the suite
// reports is scaled to reference-host time, raw × calibRefNs / kernel
// time, and the record keeps the median factor as env.host_speed.
//
// The kernel is a pointer chase over a 256 KiB list, small enough to
// stay in L2 and in the TLB. A 4 MiB list was tried first: its time
// swung 3x inside one process while the workloads' did not. Timing it
// on one P only left stream-5k, whose scans split over both vCPUs, at a
// 15% spread.
//
// The kernel shares no code with the simulator, so a change to the
// simulator moves scaled times exactly as it moves raw ones.

const (
	calibNodes  = 2048 // × 128 bytes
	calibRounds = 1600
	// calibRefNs is about the kernel's time on the reference host
	// (2-vCPU VM, Go 1.24) in a calm hour. It only fixes the unit;
	// changing it would rescale every reported time.
	calibRefNs = 20e6
)

type calibNode struct {
	next *calibNode
	val  [15]uint64
}

// calibList is built once per process, before anything is timed.
var calibList = buildCalibList()

var calibSink uint64

func buildCalibList() *calibNode {
	nodes := make([]calibNode, calibNodes)
	order := make([]int, calibNodes)
	for i := range order {
		order[i] = i
	}
	// A fixed LCG shuffle: the walk order is the same in every run.
	x := uint64(12345)
	for i := calibNodes - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i+1 < calibNodes; i++ {
		nodes[order[i]].next = &nodes[order[i+1]]
		nodes[order[i]].val[i%15] = uint64(i)
	}
	return &nodes[order[0]]
}

// hostSpeed times the kernel on every P at once, since the workloads
// keep both vCPUs busy (sweep workers, parallel scans, GC), and returns
// the factor that scales a raw host time to reference-host time: below
// 1 while the host runs slower than the reference.
func hostSpeed() float64 {
	ns := make([]int64, runtime.GOMAXPROCS(0))
	acc := make([]uint64, len(ns))
	var wg sync.WaitGroup
	for i := range ns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := now()
			var a uint64
			for r := 0; r < calibRounds; r++ {
				for n := calibList; n != nil; n = n.next {
					a += n.val[r%15] ^ a>>3
				}
			}
			ns[i], acc[i] = now()-t0, a
		}(i)
	}
	wg.Wait()
	var total int64
	for i, t := range ns {
		total += t
		calibSink += acc[i]
	}
	return calibRefNs * float64(len(ns)) / float64(total)
}
