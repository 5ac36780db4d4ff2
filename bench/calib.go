package main

import (
	"runtime"
	"time"
)

// The VM this benchmark was written on runs everything — GEMMs, rendezvous
// rounds, goroutine spawns — 30-40 % slower for minutes at a time, whatever
// the code (README.md, "Machine speed"). A host time measured there says as
// much about the minute it was measured in as about the code. So the
// benchmark measures the machine as well: between chunks it times a fixed
// piece of arithmetic of its own on every thread it may use, and reports
// host times and rates scaled to a reference machine speed.

// refNominalSeconds is what refKernel takes on all threads of the
// calibration VM in its fast state: machine speed 1.
const refNominalSeconds = 1.72e-3

// refShare is the share of the timed work's duration spent measuring the
// machine next to it.
const refShare = 0.02

// calibrator times refKernel on every thread the benchmark may use. Its
// workers are started once and woken through channels, so a measurement
// allocates nothing and can sit inside a pass whose allocations are counted.
type calibrator struct {
	start []chan struct{}
	done  chan float64
	sum   float64
	n     int
}

func newCalibrator() *calibrator {
	c := &calibrator{done: make(chan float64)}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		ch := make(chan struct{})
		c.start = append(c.start, ch)
		go func() {
			for range ch {
				c.done <- refKernel()
			}
		}()
	}
	return c
}

// refKernel is twelve independent multiply-add chains: enough parallel
// floating-point work to be bound by execution ports, as the product's
// kernels are, so it slows with them when a neighbour shares the core.
// Of the kernels tried (1, 4, 8, 12 chains, integer mixing, sums over
// L2-, L3- and memory-sized buffers) it tracked the five workloads best.
func refKernel() float64 {
	a, b, c, d, e, f := 1.0001, 1.0002, 1.0003, 1.0004, 1.0005, 1.0006
	g, h, i, j, k, l := 1.0007, 1.0008, 1.0009, 1.0010, 1.0011, 1.0012
	for n := 0; n < 600_000; n++ {
		a = a*1.0000001 + 1e-9
		b = b*1.0000001 + 1e-9
		c = c*1.0000001 + 1e-9
		d = d*1.0000001 + 1e-9
		e = e*1.0000001 + 1e-9
		f = f*1.0000001 + 1e-9
		g = g*1.0000001 + 1e-9
		h = h*1.0000001 + 1e-9
		i = i*1.0000001 + 1e-9
		j = j*1.0000001 + 1e-9
		k = k*1.0000001 + 1e-9
		l = l*1.0000001 + 1e-9
	}
	return a + b + c + d + e + f + g + h + i + j + k + l
}

// sample measures the machine for refShare of the given duration of timed
// work (at least once).
func (c *calibrator) sample(work time.Duration) {
	begin := time.Now()
	for {
		t0 := time.Now()
		for _, ch := range c.start {
			ch <- struct{}{}
		}
		for range c.start {
			<-c.done
		}
		c.sum += time.Since(t0).Seconds()
		c.n++
		if time.Since(begin) >= time.Duration(refShare*float64(work)) {
			return
		}
	}
}

// speed is the machine's speed over the samples taken since the last
// call, relative to the calibration VM's fast state.
func (c *calibrator) speed() float64 {
	if c.n == 0 {
		return 1
	}
	s := refNominalSeconds / (c.sum / float64(c.n))
	c.sum, c.n = 0, 0
	return s
}

// stop ends the workers.
func (c *calibrator) stop() {
	for _, ch := range c.start {
		close(ch)
	}
}
