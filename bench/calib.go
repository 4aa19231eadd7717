package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// This box's speed is not its own. A neighbour on the host slows
// everything that touches memory by a quarter or more for a minute at a
// time: the same query batch, alone on an idle VM, took 326 ms and
// 530 ms two minutes apart. Raw times taken in different runs therefore
// differ by more than any bound worth setting.
//
// Every timing the benchmark reports is instead scaled by a reference
// kernel run alongside it: a fixed piece of engine-like work (scan a
// table of separately allocated rows, filter, roll up, group into a
// map), the same on every seed and every commit because it lives here
// and touches no engine code. A time is reported as
//
//	measured × refNominalMs ÷ (the kernel's time, measured around it)
//
// that is, in milliseconds of a box on which the kernel takes its
// nominal time. Against that kernel the evaluator's time held within 3%
// (coefficient of variation) over five minutes in which its raw time
// swung by 60%. loadgen.ref_ms reports the kernel's raw median, so raw
// times can be had back.

// refNominalMs is the kernel's time on this box when nothing disturbs
// it, so reported times read as this box's undisturbed milliseconds.
const refNominalMs = 10.0

const (
	refRows  = 100000
	refScans = 16 // per tick
)

type tick struct {
	at time.Time
	ms float64
}

// calibration is the reference kernel's table and the log of its runs.
type calibration struct {
	rows [][]int
	vals []float64

	mu    sync.Mutex
	ticks []tick // in time order
}

// newCalibration builds the kernel's table; rows is refRows except in
// the self-test, which wants the kernel out of the way. The rows are cut
// from one array, so the kernel's memory layout, and with it its speed,
// does not depend on the state of the heap it was built in: built row
// by row after a workload had run, it took 13 ms where it takes 9.
func newCalibration(rows int) *calibration {
	rng := rand.New(rand.NewSource(20260926))
	c := &calibration{rows: make([][]int, rows), vals: make([]float64, rows)}
	codes := make([]int, 3*rows)
	for i := range c.rows {
		c.rows[i] = codes[3*i : 3*i+3 : 3*i+3]
		c.rows[i][0], c.rows[i][1], c.rows[i][2] = rng.Intn(100), rng.Intn(20), rng.Intn(180)
		c.vals[i] = float64(1 + rng.Intn(200))
	}
	return c
}

// scan is one unit of reference work: the rows of one month, grouped by
// product category and city.
func (c *calibration) scan(month int) float64 {
	sums := map[[2]int]float64{}
	for i, row := range c.rows {
		if row[2]/30 != month {
			continue
		}
		sums[[2]int{row[0] / 10, row[1] / 4}] += c.vals[i]
	}
	var t float64
	for _, v := range sums {
		t += v
	}
	return t
}

var refSink float64

// tick runs the kernel and logs how long it took. Safe for concurrent
// use: readers tick side by side, as they send side by side.
func (c *calibration) tick() {
	start := time.Now()
	var t float64
	for k := 0; k < refScans; k++ {
		t += c.scan(k % 6)
	}
	took := float64(time.Since(start)) / 1e6
	c.mu.Lock()
	refSink += t
	c.ticks = append(c.ticks, tick{start, took})
	c.mu.Unlock()
}

// settle runs the kernel five times over: where the clients of a window
// stop for it anyway, the longer look at the box makes a steadier scale.
func (c *calibration) settle() {
	for k := 0; k < 5; k++ {
		c.tick()
	}
}

// seconds runs fn between two runs of the kernel and returns how long
// fn took, in seconds on the nominal box.
func (c *calibration) seconds(fn func() error) (float64, error) {
	c.tick()
	start := time.Now()
	err := fn()
	end := time.Now()
	c.tick()
	return end.Sub(start).Seconds() * c.factor(start, end), err
}

// factor is what scales a time measured between t0 and t1 to the nominal
// box: refNominalMs over the mean of the ticks taken in that interval,
// ends included; if there are fewer than two, over the nearest tick on
// each side.
func (c *calibration) factor(t0, t1 time.Time) float64 {
	const slack = 50 * time.Millisecond
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := sort.Search(len(c.ticks), func(i int) bool { return !c.ticks[i].at.Before(t0.Add(-slack)) })
	hi := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].at.After(t1.Add(slack)) })
	if hi-lo < 2 {
		if lo > 0 {
			lo--
		}
		if hi < len(c.ticks) {
			hi++
		}
	}
	if hi == lo {
		return 1
	}
	var sum float64
	for _, tk := range c.ticks[lo:hi] {
		sum += tk.ms
	}
	return refNominalMs * float64(hi-lo) / sum
}

// between lists the kernel's times logged from t0 to t1.
func (c *calibration) between(t0, t1 time.Time) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, tk := range c.ticks {
		if !tk.at.Before(t0) && !tk.at.After(t1) {
			out = append(out, tk.ms)
		}
	}
	return out
}
