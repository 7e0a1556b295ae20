package bench

import "time"

// Host calibration. The benchmark runs on shared hosts whose speed drifts
// by tens of percent over seconds to minutes as other tenants load the
// memory system, and no statistic of a run can average that away. So every
// rep interleaves a fixed kernel with its timed units and scales its
// timings by calNominal ÷ the kernel's mean time in that rep: a slowdown
// that stretches both by the same share cancels. The kernel fills a Go map,
// the mix of hashing, scattered loads and stores and runtime calls the
// simulator spends its time on. It calls no simulator code, so a change to
// the program cannot move it. README.md records how well it tracks.

const (
	// calKeys is how many keys one kernel run inserts.
	calKeys = 20000
	// calNominal is the kernel time the timings are scaled to: about its
	// mean between workload units on the 2-vCPU 2 GHz Xeon (Sapphire
	// Rapids) KVM guest the benchmark was built on, so scaled numbers read
	// close to raw ones there.
	calNominal = 1000 * time.Microsecond
	// calEvery is the timed work between two kernel runs: short against
	// the host's slow periods, long enough that the kernel adds under a
	// tenth to a rep.
	calEvery = 10 * time.Millisecond
)

// calibrator runs the kernel on a map it keeps, so after the first run the
// kernel allocates nothing and the program's garbage collector has no work
// to add to it.
type calibrator struct {
	m     map[uint64]uint64
	runs  int
	total time.Duration
	last  time.Time // when the last timed run ended
}

func newCalibrator() *calibrator {
	c := &calibrator{m: make(map[uint64]uint64, calKeys)}
	c.kernel() // grow the map untimed
	return c
}

func (c *calibrator) kernel() {
	for i := uint64(0); i < calKeys; i++ {
		c.m[(i*0x9E3779B97F4A7C15)>>40] = i
	}
	clear(c.m)
}

// tick times one kernel run, unless less than calEvery has passed since the
// last one ended, and returns how long it took (0 when it did not run). A
// rep calls it before every epoch, or every op without epochs.
func (c *calibrator) tick() time.Duration {
	t := now()
	if c.runs > 0 && t.Sub(c.last) < calEvery {
		return 0
	}
	c.kernel()
	c.last = now()
	d := c.last.Sub(t)
	c.runs++
	c.total += d
	return d
}

// meanUS is the timed runs' mean in µs, 0 before any. The mean, not the
// median: the kernel's time swings between modes from one moment to the
// next, and the timings it scales are sums over the same moments.
func (c *calibrator) meanUS() float64 {
	if c.runs == 0 {
		return 0
	}
	return float64(c.total) / 1e3 / float64(c.runs)
}

// hostScale is the factor that brings a rep's timings to the nominal host:
// calNominal ÷ the kernel's mean time in the rep, calUS. A rep without a
// calibration (calUS 0) is left as measured.
func hostScale(calUS float64) float64 {
	if calUS <= 0 {
		return 1
	}
	return float64(calNominal.Microseconds()) / calUS
}
