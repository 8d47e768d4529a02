package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared 2-vCPU host the same cold fig8
// request took 0.8 s in one minute and 1.7 s a few minutes later, with the
// process on its core the whole time: its CPU time equalled its wall time,
// and steal and involuntary switches stayed near zero. Medians of whole
// runs then spread with the host, not with the program. So the benchmark
// times a fixed kernel, the probe, between operations, and reports every
// time metric at a reference host speed: each operation's time (and each
// set-up's) × probeRef / the median probe time of the batches just before
// and just after it.
//
// The probe does random read-modify-writes over a buffer mapped outside
// the Go heap, so it allocates nothing, the garbage collector never sees
// it, and nothing the program does between probes changes its work.

const (
	// probeWords is the probe buffer's length: 32 MiB, more than a
	// core's share of the last-level cache.
	probeWords = 4 << 20
	// probeSteps is the probe's length: about 10 ms on the host above.
	probeSteps = 400_000
	// probeRef is the probe's median time in ms on the reference host;
	// time metrics are reported as if each run's host had run the probe
	// in exactly this time.
	probeRef = 10.0
	// probeShare is the probe's time as a share of the workload's time.
	probeShare = 0.04
)

// probeMB is the probe buffer's share of the resident set, in MiB; it is
// all resident once mapped, and rss_mb leaves it out.
const probeMB = probeWords * 8 / (1 << 20)

// prober interleaves probes with a workload so that they take probeShare
// of its time, and keeps every probe's duration.
type prober struct {
	buf  []uint64
	x    uint64
	debt time.Duration
	ms   []float64
	last int // index of the previous batch's first probe
}

// newProber maps the probe buffer and writes every page of it, so that
// the probes never fault.
func newProber() (*prober, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %w", err)
	}
	p := &prober{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeWords), x: 1}
	for i := range p.buf {
		p.buf[i] = uint64(i)
	}
	return p, nil
}

// probe runs the kernel once and returns its duration.
func (p *prober) probe() time.Duration {
	start := time.Now()
	x := p.x
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.buf[(x>>20)%probeWords] += x
	}
	p.x = x
	return time.Since(start)
}

// after owes probe time for work that took d. Once the debt reaches a
// whole probe it pays it in one batch and returns the scale for the work
// done since the previous batch: probeRef over the median probe time of
// the two batches around it.
func (p *prober) after(d time.Duration) (float64, bool) {
	p.debt += time.Duration(float64(d) * probeShare)
	if p.debt <= 0 {
		return 0, false
	}
	batch := len(p.ms)
	for p.debt > 0 {
		t := p.probe()
		p.debt -= t
		p.ms = append(p.ms, ms(t))
	}
	scale := probeRef / percentile(p.ms[p.last:], 50)
	p.last = batch
	return scale, true
}

// settle is after, probing at once if the debt does not yet call for it.
func (p *prober) settle(d time.Duration) float64 {
	if scale, ok := p.after(d); ok {
		return scale
	}
	p.debt = 1
	scale, _ := p.after(0)
	return scale
}
