package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"

	"omptune"
	"omptune/internal/measure"
	"omptune/openmp"
)

// Runtime workload shape. Each of the fifteen study kernels runs at its
// self-test scale under every configuration of runtimeConfigs, one measured
// series each (one warmup, seriesReps timed repetitions) on a fresh runtime
// with one thread per CPU. The seed orders the series; the work is the same
// for every seed, so the seed does not move wall_s.
const seriesReps = 7

// runtimeConfigs are the swept runtime settings, as environment entries.
var runtimeConfigs = [][]string{
	{},
	{"OMP_SCHEDULE=dynamic"},
	{"OMP_SCHEDULE=guided"},
	{"KMP_LIBRARY=turnaround"},
	{"KMP_BLOCKTIME=0"},
	{"KMP_FORCE_REDUCTION=atomic"},
}

// kernelRepeats is how many kernel calls make one timed repetition, so that
// each repetition takes a few milliseconds at 2 threads (one call of the
// smallest kernels takes tens of microseconds, below the clock's useful
// resolution for a per-kernel median).
var kernelRepeats = map[string]int{
	"BT": 1, "CG": 9, "EP": 6, "FT": 9, "LU": 4, "MG": 12,
	"Alignment": 1, "Health": 24, "Nqueens": 80, "Sort": 1, "Strassen": 6,
	"LULESH": 4, "RSBench": 18, "SU3Bench": 2, "XSbench": 3,
}

type kernelFunc = func(*openmp.Runtime, float64) float64

// repeated returns a kernel that calls k n times and sums the checksums.
func repeated(k kernelFunc, n int) kernelFunc {
	return func(rt *openmp.Runtime, scale float64) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += k(rt, scale)
		}
		return sum
	}
}

type series struct {
	app    *omptune.App
	kernel kernelFunc
	env    []string
	ref    float64 // 1-thread checksum
}

// seriesOutcome is what the oracles and layers read from one series.
type seriesOutcome struct {
	checksum float64
	runtimes []float64
	stats    openmp.Stats
	err      error
}

// runtimeBench runs the series through openmp.New and measure.Run.
type runtimeBench struct {
	threads int
	series  []series
	last    []seriesOutcome
}

// setupRuntime draws the series order from the seed and computes every
// kernel's 1-thread reference checksum.
func setupRuntime(seed int64, _ *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	opts, err := openmp.OptionsFromEnviron([]string{"OMP_NUM_THREADS=1"})
	if err != nil {
		return nil, err
	}
	ref, err := openmp.New(opts)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	b := &runtimeBench{threads: runtime.NumCPU()}
	for _, a := range omptune.Applications() {
		n, ok := kernelRepeats[a.Name]
		if !ok {
			return nil, fmt.Errorf("no repeat count for kernel %s", a.Name)
		}
		k := repeated(a.Kernel, n)
		want := k(ref, 1.0)
		for _, env := range runtimeConfigs {
			b.series = append(b.series, series{app: a, kernel: k, env: env, ref: want})
		}
	}
	rng.Shuffle(len(b.series), func(i, j int) { b.series[i], b.series[j] = b.series[j], b.series[i] })
	return b, nil
}

func (b *runtimeBench) run(tr *tracer) error {
	b.last = make([]seriesOutcome, len(b.series))
	for i, s := range b.series {
		b.last[i] = b.runSeries(tr, s)
	}
	return nil
}

func (b *runtimeBench) runSeries(tr *tracer, s series) seriesOutcome {
	opts, err := openmp.OptionsFromEnviron(append([]string{"OMP_NUM_THREADS=" + strconv.Itoa(b.threads)}, s.env...))
	if err != nil {
		return seriesOutcome{err: err}
	}
	sp := tr.begin("openmp.new")
	rt, err := openmp.New(opts)
	tr.end(sp)
	if err != nil {
		return seriesOutcome{err: err}
	}
	before := rt.Stats()
	sp = tr.begin("measure.series")
	res := measure.Run(rt, s.kernel, 1.0, 1, seriesReps)
	tr.end(sp)
	out := seriesOutcome{checksum: res.Checksum, runtimes: res.Runtimes, stats: rt.Stats().Sub(before)}
	sp = tr.begin("openmp.close")
	rt.Close()
	tr.end(sp)
	return out
}

func (b *runtimeBench) verify() (attempted, failed int) {
	for i, o := range b.last {
		s := b.series[i]
		attempted++
		switch {
		case o.err != nil:
			fmt.Fprintf(os.Stderr, "runtime: %s %v: %v\n", s.app.Name, s.env, o.err)
		case !checksumOK(o.checksum, s.ref):
			fmt.Fprintf(os.Stderr, "runtime: %s %v: checksum %.17g, 1-thread reference %.17g\n", s.app.Name, s.env, o.checksum, s.ref)
		default:
			continue
		}
		failed++
	}
	return attempted, failed
}

func (b *runtimeBench) layers(_ *tracer, vals map[string]float64) {
	perApp := map[string][]float64{}
	var st openmp.Stats
	for i, o := range b.last {
		name := b.series[i].app.Name
		for _, r := range o.runtimes {
			perApp[name] = append(perApp[name], r*1e3)
		}
		st = sumStats(st, o.stats)
	}
	for name, rs := range perApp {
		vals["apps."+name+".median_ms"] = median(rs)
	}
	vals["openmp.regions"] = float64(st.Regions)
	vals["openmp.chunks"] = float64(st.Chunks)
	vals["openmp.tasks_run"] = float64(st.TasksRun)
	vals["openmp.tasks_stolen"] = float64(st.TasksStolen)
	vals["openmp.steal_rate"] = 0
	if st.TasksRun > 0 {
		vals["openmp.steal_rate"] = float64(st.TasksStolen) / float64(st.TasksRun)
	}
	vals["openmp.sleeps"] = float64(st.Sleeps)
	vals["openmp.wakeups"] = float64(st.Wakeups)
}

func sumStats(a, b openmp.Stats) openmp.Stats {
	a.Regions += b.Regions
	a.Chunks += b.Chunks
	a.TasksRun += b.TasksRun
	a.TasksStolen += b.TasksStolen
	a.Sleeps += b.Sleeps
	a.Wakeups += b.Wakeups
	return a
}
