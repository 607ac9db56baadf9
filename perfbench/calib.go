package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was built on runs the same compute at speeds
// that differ by up to a factor of 1.6 from one stretch of minutes to the
// next (identical cold solves took 0.40 s in one run and 0.66 s in the
// next, single-threaded as well as on both vCPUs), so plan-and-simulate's
// compute-bound times spread across runs far more than anything the
// program does. The speed follows what the host's other tenants do to the
// shared last-level cache and memory, so the kernel walks a table larger
// than L2: over ten runs, four of them fast, scaling by it took batch_s's
// spread from 0.23 to 0.11, where a kernel inside L2 reached 0.13. That workload also times a fixed calibration kernel, which
// calls no LAAR code, between its batches, and reports its end-to-end
// times at the reference speed: the raw time × calRefS / the run's median
// calibration pass. A slower program reads slower at any machine speed;
// a slower machine does not. The run prints the raw times and the scale.

// calRefS is the reference time of one calibration pass: its usual median
// on a 2-vCPU Intel Xeon (Sapphire Rapids, KVM, go1.24).
const calRefS = 0.016

// One calibration pass is calChunks chunks of calIters kernel steps per P,
// each P walking its own table of calWords words (4 MiB: past L2, in the
// shared L3).
const (
	calChunks = 16
	calIters  = 1 << 13
	calWords  = 1 << 20
)

// calibrator times calibration passes over one run.
type calibrator struct {
	tables [][]uint32
	passes []float64
	sink   uint32 // keeps the kernel's result live
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		t := make([]uint32, calWords)
		for i := range t {
			t[i] = uint32(i) * 2654435761
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// pass shares the pass's chunks out over GOMAXPROCS workers, as the batch
// shares out its cells, and records the wall time until the last chunk
// finished.
func (c *calibrator) pass() {
	var wg sync.WaitGroup
	var next atomic.Int64
	total := int64(len(c.tables) * calChunks)
	sums := make([]uint32, len(c.tables))
	t0 := time.Now()
	for p := range c.tables {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := next.Add(1); i <= total; i = next.Add(1) {
				sums[p] += calKernel(c.tables[p], uint64(i))
			}
		}(p)
	}
	wg.Wait()
	c.passes = append(c.passes, time.Since(t0).Seconds())
	for _, s := range sums {
		c.sink ^= s
	}
}

// calKernel walks t at pseudo-random positions, reading and rewriting
// each: dependent loads, integer multiplies and unpredictable addresses.
func calKernel(t []uint32, seed uint64) uint32 {
	x := seed*0x9e3779b97f4a7c15 | 1
	var acc uint32
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (uint32(x) ^ acc) & (calWords - 1)
		v := t[j]*2246822519 + uint32(x>>32)
		t[j] = v
		acc += v >> 7
	}
	return acc
}

// scale is the factor that brings a time measured in this run to the
// reference speed: above 1 when the machine ran fast.
func (c *calibrator) scale() float64 {
	return calRefS / median(append([]float64(nil), c.passes...))
}
