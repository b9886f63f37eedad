// Command perfbench is the end-to-end benchmark of the omptune pipeline.
// Each workload is one closed batch job over the pipeline's public
// functions, run in its own process:
//
//	perfbench --workload campaign|report|tune|runtime --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it wraps spans around its calls into each
// layer and prints the declared per-layer metrics. The last line of
// standard output is one JSON object. With --steady K it runs K such
// processes instead and prints each metric's median and quartiles.
//
// Run it from the repository root (it reads BENCHMARK.json there), usually
// through perfbench/run.sh, which builds it first. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// processStart stands in for the process start time: set-up time is
// measured from here to the first timed call.
var processStart = time.Now()

// instance is one workload after set-up: its inputs are built and it can
// run its timed job repeatedly.
type instance interface {
	// run performs one timed job. tr is nil when tracing is off.
	run(tr *tracer) error
	// verify checks the outputs of the last run, untimed, and returns how
	// many checks it made and how many failed.
	verify() (attempted, failed int)
	// layers adds the per-layer values of the last (traced) run to vals.
	layers(tr *tracer, vals map[string]float64)
}

type workload struct {
	name string
	// minReps is how many timed jobs a run makes at least.
	minReps int
	// setup builds the workload's inputs from the seed. tr is nil when
	// tracing is off.
	setup func(seed int64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{name: "campaign", minReps: 1, setup: setupCampaign},
	{name: "report", minReps: 1, setup: setupReport},
	// Two jobs at least, so the determinism oracle sees the same seed twice.
	{name: "tune", minReps: 2, setup: setupTune},
	{name: "runtime", minReps: 1, setup: setupRuntime},
}

// An untraced run builds its inputs at least minSetups times, and more
// while they take under setupBudget seconds in all, up to maxSetups; setup_s
// is their median, the first one timed from process start.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1.0
)

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "seconds of timed jobs per run (at least the workload's minimum job count)")
	flag.IntVar(&opt.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.IntVar(&opt.steady, "steady", 0, "run K processes, seeds counting up from --seed, and print each metric's median and quartiles")
	flag.IntVar(&opt.sets, "sets", 1, "with --steady, how many sets of K runs to make and compare")
	flag.Parse()
	spec, err := loadSpec(specFile)
	if err != nil {
		fail(err)
	}
	if opt.steady > 0 {
		err = steady(spec, opt)
	} else {
		err = runOnce(spec, opt)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	steady, sets int
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runOnce makes one run of one workload and prints its result line.
func runOnce(spec *benchSpec, opt options) error {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return err
	}
	if opt.trace != 0 && opt.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	var (
		vals     map[string]float64
		att, bad int
	)
	if opt.trace == 1 {
		vals, att, bad, err = tracedRun(w, opt)
	} else {
		vals, att, bad, err = untracedRun(w, opt)
	}
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if opt.trace == 1 {
		declared = spec.PerLayer
	}
	metrics, err := selectMetrics(declared, vals, opt.trace == 1)
	if err != nil {
		return err
	}
	out, err := json.Marshal(result{Correct: bad == 0, Attempted: att, Failed: bad, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// jobStats is what the harness measures around one timed job.
type jobStats struct {
	wall, allocMB, gcCycles, gcPause, cpu float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeJob runs one job from a collected heap and measures it. A job that
// returns an error counts as one failed check; otherwise the instance
// verifies its outputs, untimed.
func timeJob(inst instance, tr *tracer) (st jobStats, att, bad int) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	root := tr.begin("harness.unattributed")
	err := inst.run(tr)
	tr.end(root)
	st.wall = time.Since(t0).Seconds()
	st.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	st.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
		return st, 1, 1
	}
	att, bad = inst.verify()
	return st, att, bad
}

// jobsFor runs timed jobs until their summed time would pass budget
// seconds, and at least min of them.
func jobsFor(inst instance, tr func() *tracer, budget float64, min int, each func(jobStats, *tracer)) (att, bad int) {
	used, last := 0.0, 0.0
	for n := 0; n < min || used+last <= budget; n++ {
		t := tr()
		st, a, b := timeJob(inst, t)
		att, bad = att+a, bad+b
		used, last = used+st.wall, st.wall
		fmt.Fprintf(os.Stderr, "job %d: %.4f s\n", n+1, st.wall)
		each(st, t)
	}
	return att, bad
}

func untracedRun(w workload, opt options) (map[string]float64, int, int, error) {
	var (
		inst   instance
		setups []float64
	)
	for k, used := 0, 0.0; k < minSetups || k < maxSetups && used < setupBudget; k++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		var err error
		if inst, err = w.setup(opt.seed, nil); err != nil {
			return nil, 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		used += setups[k]
		fmt.Fprintf(os.Stderr, "set-up %d: %.4f s\n", k+1, setups[k])
	}
	var walls, allocs []float64
	att, bad := jobsFor(inst, func() *tracer { return nil }, opt.seconds, w.minReps, func(st jobStats, _ *tracer) {
		walls = append(walls, st.wall)
		allocs = append(allocs, st.allocMB)
	})
	return map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(),
		"alloc_mb":     median(allocs),
		"success_rate": float64(att-bad) / float64(att),
	}, att, bad, nil
}

// tracedRun sets up once with tracing on, then spends half the budget on
// untraced jobs and half on traced ones; the per-layer values are medians
// over the traced jobs and the trace overhead is the difference of the two
// median job times.
func tracedRun(w workload, opt options) (map[string]float64, int, int, error) {
	setupTr := newTracer()
	inst, err := w.setup(opt.seed, setupTr)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	min := (w.minReps + 1) / 2
	var plain []float64
	att, bad := jobsFor(inst, func() *tracer { return nil }, opt.seconds/2, min, func(st jobStats, _ *tracer) {
		plain = append(plain, st.wall)
	})
	var traced []float64
	per := map[string][]float64{}
	a, b := jobsFor(inst, newTracer, opt.seconds/2, min, func(st jobStats, tr *tracer) {
		traced = append(traced, st.wall)
		vals := map[string]float64{
			"go.gc_cycles":  st.gcCycles,
			"go.gc_pause_s": st.gcPause,
			"process.cpu_s": st.cpu,
		}
		for name, s := range selfTimes(tr.spans) {
			vals[name+"_s"] = s
		}
		inst.layers(tr, vals)
		for name, v := range vals {
			per[name] = append(per[name], v)
		}
	})
	att, bad = att+a, bad+b
	out := map[string]float64{"harness.trace_overhead_s": median(traced) - median(plain)}
	for name, vs := range per {
		out[name] = median(vs)
	}
	for name, s := range selfTimes(setupTr.spans) {
		out[name+"_s"] = s
	}
	return out, att, bad, nil
}
