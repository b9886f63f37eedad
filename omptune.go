// Package omptune reproduces the SC'24 study "Evaluating Tuning
// Opportunities of the LLVM/OpenMP Runtime" end to end: an OpenMP-style
// runtime with the full set of studied tuning knobs (see the openmp
// subpackage), architecture models of the three machines in the study, a
// deterministic performance model in place of the physical testbed, the
// fifteen benchmark applications, the 240k-sample sweep, and the
// statistical and machine-learning analysis that produces every table and
// figure of the paper.
//
// Typical use:
//
//	ds, err := omptune.Collect(omptune.CollectOptions{})   // the 240k-sample sweep
//	omptune.WriteReport(os.Stdout, ds)                     // every table & figure
//	recs := omptune.Recommend(ds, "Nqueens")               // Table VII-style advice
//
// The heavy lifting lives in internal packages; this package is the stable
// surface for examples, tools and downstream users.
package omptune

import (
	"context"
	"fmt"
	"io"
	"time"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/ml"
	"omptune/internal/obs"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/stats"
	"omptune/internal/topology"
	"omptune/internal/viz"
)

// Re-exported core types. The aliases keep one importable vocabulary for
// users while the implementations stay in focused internal packages.
type (
	// Arch identifies a CPU architecture of the study.
	Arch = topology.Arch
	// Machine is an architecture model (Table I).
	Machine = topology.Machine
	// Config is one assignment of the seven studied environment variables.
	Config = env.Config
	// VarName names one studied environment variable.
	VarName = env.VarName
	// Setting is a thread-count/input-scale experimental setting.
	Setting = sim.Setting
	// App is one of the fifteen benchmark applications.
	App = apps.App
	// Dataset is the collected tabular sample data.
	Dataset = dataset.Dataset
	// Sample is one dataset row.
	Sample = dataset.Sample
	// Heatmap is a feature-influence matrix (Figs. 2-4).
	Heatmap = core.Heatmap
	// Recommendation is a Table VII-style tuning suggestion.
	Recommendation = core.Recommendation
	// TuneResult is the outcome of the guided coordinate-descent tuner.
	TuneResult = core.TuneResult
	// UpshotSummary is the per-architecture Q1 summary.
	UpshotSummary = core.UpshotSummary
	// WilcoxonRow is one consistency-test row (Table III).
	WilcoxonRow = core.WilcoxonRow
	// Violin is a kernel-density summary of a runtime distribution.
	Violin = stats.Violin
)

// The studied architectures.
const (
	A64FX   = topology.A64FX
	Skylake = topology.Skylake
	Milan   = topology.Milan
)

// Grouping strategies for influence analysis (§IV-D).
const (
	PerArchApp = core.PerArchApp
	PerApp     = core.PerApp
	PerArch    = core.PerArch
)

// Machines returns the three architecture models of Table I.
func Machines() []*Machine { return topology.All() }

// MachineByName returns the model for an architecture name
// ("a64fx", "skylake", "milan", or anything added via RegisterMachine).
func MachineByName(name string) (*Machine, error) { return topology.Get(Arch(name)) }

// RegisterMachine adds a user-defined architecture model, enabling sweeps
// and tuning on machines beyond the study's three (its "latest CPU chips"
// future-work item). The model's calibration fields (bandwidth, NUMA
// factors, wakeup cost, noise) are documented on topology.Machine.
func RegisterMachine(m *Machine) error { return topology.Register(m) }

// Applications returns the fifteen benchmark applications in suite order.
func Applications() []*App { return apps.All() }

// NestedApplications returns the nested-parallelism applications (LUNest,
// TreeNest) this repo adds beyond the study set; they join a campaign via
// CollectOptions.Nested or an explicit Apps list.
func NestedApplications() []*App { return apps.NestedApps() }

// ApplicationByName looks an application up by its table name
// (e.g. "Nqueens", "XSbench").
func ApplicationByName(name string) (*App, error) { return apps.ByName(name) }

// DefaultConfig returns the runtime's default configuration on m (§III).
func DefaultConfig(m *Machine) Config { return env.Default(m) }

// ConfigSpace enumerates the full sweep space on m: 4608 configurations on
// A64FX, 9216 on the x86 machines.
func ConfigSpace(m *Machine) []Config { return env.Space(m) }

// ParseConfig builds a Config from KEY=VALUE environment entries.
func ParseConfig(m *Machine, environ []string) (Config, error) { return env.Parse(m, environ) }

// Variables returns the canonical order of the studied environment
// variables.
func Variables() []VarName { return env.Names() }

// Simulate returns the modeled runtime of app on m under cfg at the given
// setting for repetition rep (deterministic; includes measurement noise and
// per-run drift).
func Simulate(m *Machine, app *App, cfg Config, set Setting, rep int) float64 {
	return sim.Evaluate(m, app.Profile, cfg, set, rep)
}

// SimulateExact is Simulate without noise: the model's true runtime.
func SimulateExact(m *Machine, app *App, cfg Config, set Setting) float64 {
	return sim.EvaluateExact(m, app.Profile, cfg, set)
}

// Repetitions is the number of repeated runs per configuration (R0..R3).
const Repetitions = sim.Reps

// ---- Measurement backends (the Evaluator seam) --------------------------

// Evaluator is the pluggable measurement backend behind Collect, Tune and
// the extension analyses: it returns the runtime of an application under a
// configuration. Two backends ship with the library — the deterministic
// analytic model (the default everywhere) and the measured backend, which
// executes the application's functional kernel on a real openmp.Runtime.
type Evaluator = core.Evaluator

// ModelBackend returns the analytic-model backend, the default used when no
// backend is given. It is deterministic: campaigns produce byte-identical
// CSV output across runs and worker counts.
func ModelBackend() Evaluator { return core.ModelEvaluator{} }

// MeasureOptions configures the measured backend (warmup runs and timed
// repetitions per configuration, plus the optional adaptive-repetition
// policy).
type MeasureOptions = measure.Options

// AdaptivePolicy is the variability-targeted stopping rule of the measured
// backend: repetitions continue until the running CoV and/or relative 95% CI
// half-width drop under their targets, bounded by MinReps/MaxReps and an
// optional per-series time budget. Set it in MeasureOptions.Adaptive; the
// zero value disables adaptation and keeps the fixed repetition count.
type AdaptivePolicy = measure.Adaptive

// NewMeasuredEvaluator returns the measured backend: each evaluation builds
// a real openmp.Runtime from the swept configuration (via
// Config.RuntimeOptions), runs the application's kernel with a warmup, and
// times sim.Reps repetitions on the monotonic clock, reusing the runtime
// across repetitions. Samples it produces carry Source "measured" in the
// dataset CSV.
func NewMeasuredEvaluator(opt MeasureOptions) Evaluator { return measure.NewEvaluator(opt) }

// CalibrationOptions selects the architecture, applications and subspace
// size of a backend-agreement study.
type CalibrationOptions = core.CalibrationOptions

// CalibrationReport is the model-vs-measured agreement study: per-app and
// per-variable Spearman rank correlation and median relative error over a
// shared configuration subspace. Its String method renders the tables.
type CalibrationReport = core.CalibrationReport

// Calibrate evaluates the same configuration subspace under both backends
// and reports how well the alternate backend's runtime ordering tracks the
// reference's (nil = the analytic model). Runtimes are compared in
// speedup-over-default units, so the backends' incomparable absolute scales
// cancel out.
func Calibrate(ref, alt Evaluator, opt CalibrationOptions) (*CalibrationReport, error) {
	return core.Calibrate(ref, alt, opt)
}

// CollectOptions configures a data-collection campaign; the zero value
// reproduces the paper's full dataset (Table II).
type CollectOptions struct {
	// Arches restricts collection; nil = all three.
	Arches []Arch
	// Apps restricts the applications by name; nil = all that ran on the
	// architecture.
	Apps []string
	// Fraction overrides the sampled share of the configuration space per
	// architecture (nil = Table II-matching defaults; set to 1.0 for the
	// fully exhaustive sweep).
	Fraction map[Arch]float64
	// Progress receives a formatted line per completed setting when
	// non-nil.
	Progress io.Writer
	// OnProgress receives the structured progress event per completed
	// setting when non-nil (settings done/total, samples/sec, ETA).
	OnProgress func(ProgressEvent)
	// Extended enables the future-work coverage: numa_domains places and
	// six thread counts for the thread-varied applications.
	Extended bool
	// Nested enables the nesting tunable axis: per-level OMP_NUM_THREADS
	// lists, OMP_MAX_ACTIVE_LEVELS and OMP_THREAD_LIMIT join the swept
	// configuration space (see NestedConfigSpace) and the nested-parallel
	// applications (LUNest, TreeNest) join the campaign when Apps is nil.
	// Composable with Extended.
	Nested bool
	// Workers bounds how many setting batches are evaluated concurrently;
	// <= 0 means runtime.NumCPU(). The sample order — and therefore the CSV
	// output — is identical for every worker count.
	Workers int
	// CheckpointDir, when non-empty, journals completed settings so an
	// interrupted campaign resumes without recomputation.
	CheckpointDir string
	// Shard tags the campaign's shard spec in the checkpoint manifest; a
	// resume under a different shard layout is rejected.
	Shard string
	// Context cancels the sweep between settings when non-nil; in-flight
	// settings finish (and checkpoint) first.
	Context context.Context
	// Backend is the measurement backend; nil means the analytic model
	// (byte-identical output with earlier releases). Pass
	// NewMeasuredEvaluator(...) to collect real kernel runtimes instead. The
	// backend identity is recorded in each sample's Source column and in the
	// checkpoint manifest; resuming a checkpoint under a different backend
	// is rejected.
	Backend Evaluator
	// TelemetryLog, when non-empty, appends a JSONL telemetry stream of the
	// campaign to this file: plan, per-setting completion, periodic
	// heartbeats with workers-busy / throughput / per-arch completion
	// gauges, and a terminal done-or-error record. Suited to tail -f and jq
	// while a long campaign runs.
	TelemetryLog string
	// TelemetryInterval is the heartbeat period of the telemetry stream;
	// zero means 30 seconds.
	TelemetryInterval time.Duration
	// Monitor, when non-nil, receives live campaign gauges and latency
	// histograms; serve it over HTTP with NewMonitorServer. Pair it with a
	// measured Backend whose MeasureOptions.Metrics is Monitor.RuntimeMetrics()
	// to include the openmp runtime's fork-join / barrier / task histograms.
	Monitor *SweepMonitor
}

// ProgressEvent is the structured per-setting progress update of a sweep.
type ProgressEvent = core.ProgressEvent

// Collect runs the sweep of §IV and returns the enriched dataset.
func Collect(opt CollectOptions) (*Dataset, error) {
	return core.RunSweep(core.SweepConfig{
		Arches:            opt.Arches,
		AppNames:          opt.Apps,
		Fraction:          opt.Fraction,
		Progress:          opt.Progress,
		OnProgress:        opt.OnProgress,
		Extended:          opt.Extended,
		Nested:            opt.Nested,
		Workers:           opt.Workers,
		CheckpointDir:     opt.CheckpointDir,
		ShardSpec:         opt.Shard,
		Context:           opt.Context,
		Evaluator:         opt.Backend,
		TelemetryLog:      opt.TelemetryLog,
		TelemetryInterval: opt.TelemetryInterval,
		Monitor:           opt.Monitor,
	})
}

// ---- Live monitoring ----------------------------------------------------

// SweepMonitor aggregates live campaign state: a metrics registry with
// atomic gauges, counters and latency histograms, plus the structured
// status payload behind the dashboard. Create one with NewSweepMonitor, set
// it in CollectOptions.Monitor, and serve it with NewMonitorServer.
type SweepMonitor = core.Monitor

// NewSweepMonitor returns a monitor with its metric schema pre-registered.
func NewSweepMonitor() *SweepMonitor { return core.NewMonitor() }

// MonitorServer is the embedded HTTP monitor: /metrics (Prometheus text
// exposition), /healthz, /api/status (JSON campaign progress), /api/regions
// (the live per-region efficiency profile) and / (a self-contained HTML
// dashboard polling both APIs).
type MonitorServer = obs.Server

// NewMonitorServer builds the HTTP monitor for mon. Call Start(addr) to
// bind and serve, Shutdown(ctx) for a graceful stop.
func NewMonitorServer(mon *SweepMonitor) *MonitorServer {
	srv := obs.NewServer(mon.Registry(), func() any { return mon.Status() })
	srv.SetRegions(func() any { return mon.Regions() })
	srv.SetVariability(func() any { return mon.Variability() })
	return srv
}

// CompareOptions tunes the sweep-vs-sweep regression gate (significance
// level, repetition-CoV noise gate and practical-significance floor); the
// zero value selects the defaults.
type CompareOptions = core.CompareOptions

// CompareReport is the result of CompareSweeps: one verdict per (arch, app)
// group plus unpaired-row counts. Its String method renders the table, and
// Regressions counts groups flagged as significantly slower.
type CompareReport = core.CompareReport

// CompareSweeps runs the variability-aware regression gate between two
// datasets of the same campaign: samples are paired per configuration,
// pairs whose noise exceeds the gate are excluded, and each arch/app group
// gets a Wilcoxon signed-rank verdict on the paired mean runtimes, flagged
// as regressed only when the shift also clears the practical-significance
// floor. Pairs whose samples carry series provenance (the reps/cov/ci
// columns written by adaptive campaigns) are gated and weighted by their own
// measured CI; legacy pairs fall back to the repetition-CoV cutoff, with
// byte-identical output on provenance-free datasets.
func CompareSweeps(oldDS, newDS *Dataset, opt CompareOptions) (*CompareReport, error) {
	return core.CompareDatasets(oldDS, newDS, opt)
}

// VariabilityReport is the noise observatory of a collected dataset: per
// (arch, app, setting) CoV and CI quantiles, real-repetition histograms, and
// the measurement time the adaptive policy saved against the fixed-rep
// baseline. Its String method renders the table.
type VariabilityReport = core.VariabilityReport

// VariabilityGroup is one (arch, app, setting) row of a VariabilityReport.
type VariabilityGroup = core.VariabilityGroup

// DatasetVariability aggregates a dataset's per-series noise provenance into
// the observatory report. Samples without provenance (model rows, files
// predating the reps/cov/ci columns) are counted but contribute no noise
// statistics.
func DatasetVariability(ds *Dataset) *VariabilityReport { return core.Variability(ds) }

// Upshot summarizes the per-architecture tuning potential (§V-Q1).
func Upshot(ds *Dataset) []UpshotSummary { return core.Upshot(ds) }

// WilcoxonTable reproduces Table III for one app and setting.
func WilcoxonTable(ds *Dataset, app, setting string) []WilcoxonRow {
	return core.WilcoxonTable(ds, app, setting)
}

// Influence trains the §IV-D logistic-regression surrogate per group and
// returns the influence heatmap for the grouping (Fig. 2: PerApp, Fig. 3:
// PerArch, Fig. 4: PerArchApp).
func Influence(ds *Dataset, g core.Grouping) (*Heatmap, error) {
	return core.InfluenceHeatmap(ds, g, ml.LogisticOptions{})
}

// Recommend mines Table VII-style variable/value suggestions for app.
func Recommend(ds *Dataset, app string) []Recommendation {
	return core.Recommend(ds, app, core.RecommendOptions{})
}

// WorstTrends mines §V-Q4's worst-performance patterns.
func WorstTrends(ds *Dataset) []core.WorstTrend { return core.WorstTrends(ds, 0.05) }

// Tune runs the §VI guided coordinate-descent search for app on m at the
// given setting, trying variables in the given order (nil = canonical
// order; pass a Heatmap's FeatureRank-derived variables for pruning).
func Tune(m *Machine, app *App, set Setting, order []VarName, budget int) TuneResult {
	return core.Tune(nil, m, app, set, order, budget)
}

// TuneWith is Tune on an explicit measurement backend: pass
// NewMeasuredEvaluator(...) to tune against real kernel execution — the
// setting the paper's §VI tuner actually targets — or ModelBackend() for
// the deterministic default.
func TuneWith(backend Evaluator, m *Machine, app *App, set Setting, order []VarName, budget int) TuneResult {
	return core.Tune(backend, m, app, set, order, budget)
}

// ---- Budgeted search (the Searcher seam) --------------------------------

// Searcher is one budgeted search strategy over the configuration space —
// the seam behind Tune, RandomSearch and the ompsearch CLI. Resolve one with
// NewSearcher; the built-in strategies are listed by SearchStrategies.
type Searcher = core.Searcher

// SearchSpec carries a search problem: machine, app, setting, space, seed,
// measurement backend, budget, and the optional cache/telemetry/monitor
// sinks.
type SearchSpec = core.SearchSpec

// SearchBudget bounds a search by evaluations and/or wall-clock time; both
// zero means the legacy default of 200 evaluations.
type SearchBudget = core.SearchBudget

// SearchResult is the outcome of one budgeted search: best configuration,
// speedup over the default, budget consumed, cache hits, and the
// best-so-far trajectory.
type SearchResult = core.SearchResult

// SearchStep is one improvement of the best-so-far configuration.
type SearchStep = core.SearchStep

// EvalCache memoizes the evaluation objective across probes; share one
// across searches of the same problem to dedupe repeat work.
type EvalCache = core.EvalCache

// NewEvalCache returns an empty evaluation cache.
func NewEvalCache() *EvalCache { return core.NewEvalCache() }

// SearchStrategies lists the built-in strategy names: greedy, restart,
// anneal, surrogate, random.
func SearchStrategies() []string { return core.SearchStrategies() }

// NewSearcher resolves a strategy by name; the error of an unknown name
// lists the valid set.
func NewSearcher(name string) (Searcher, error) { return core.NewSearcher(name) }

// Search resolves and runs one strategy — the one-call form of the seam.
func Search(ctx context.Context, strategy string, spec SearchSpec) (SearchResult, error) {
	s, err := core.NewSearcher(strategy)
	if err != nil {
		return SearchResult{}, err
	}
	return s.Search(ctx, spec)
}

// SearchMonitor aggregates live search state (best-so-far speedup,
// evaluations done, cache hits, evaluation latency); set it in
// SearchSpec.Monitor and serve it with NewSearchMonitorServer.
type SearchMonitor = core.SearchMonitor

// NewSearchMonitor returns a search monitor with its metric schema
// pre-registered.
func NewSearchMonitor() *SearchMonitor { return core.NewSearchMonitor() }

// NewSearchMonitorServer builds the HTTP monitor for mon — the same
// dashboard, /metrics and /api/status endpoints a sweep monitor serves.
func NewSearchMonitorServer(mon *SearchMonitor) *MonitorServer {
	srv := obs.NewServer(mon.Registry(), func() any { return mon.Status() })
	srv.SetRegions(func() any { return mon.Regions() })
	return srv
}

// SearchReportRow compares one completed search against the full sweep of
// the same (arch, app, setting) group: fraction of the sweep's best speedup
// reached at what fraction of the sweep's evaluation cost.
type SearchReportRow = core.SearchReportRow

// SearchReport joins a search-telemetry JSONL stream (SearchSpec.
// TelemetryLog, ompsearch -telemetry) against a sweep dataset's per-group
// best speedups.
func SearchReport(r io.Reader, ds *Dataset) ([]SearchReportRow, error) {
	return core.SearchReport(r, ds)
}

// MergeDatasets combines separately collected shards, rejecting duplicate
// rows.
func MergeDatasets(parts ...*Dataset) (*Dataset, error) { return dataset.Merge(parts...) }

// WriteDatasetCSV writes ds in the open-data tabular format.
func WriteDatasetCSV(w io.Writer, ds *Dataset) error { return ds.WriteCSV(w) }

// ReadDatasetCSV parses a dataset written by WriteDatasetCSV.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteReport renders every table and figure of the paper from ds.
func WriteReport(w io.Writer, ds *Dataset) error {
	// Q3 and Figs 2–4 share one pooled fit of the three groupings, made by
	// Q3, the first section to need it: hms is PerArch, PerApp, PerArchApp.
	var hms []*core.Heatmap
	q3 := func() (err error) {
		hms, err = core.InfluenceHeatmaps(ds, ml.LogisticOptions{}, core.PerArch, core.PerApp, core.PerArchApp)
		if err != nil {
			return err
		}
		return report.Q3(w, hms[0])
	}
	sections := []struct {
		title  string
		render func() error
	}{
		{"Table I: hardware configuration", func() error { return report.TableI(w) }},
		{"Table II: dataset description", func() error { return report.TableII(w, ds) }},
		{"Table III: Wilcoxon run-consistency (Alignment, small)", func() error { return report.TableIII(w, ds, "Alignment", "small") }},
		{"Table IV: runtime statistics per run index (Alignment, small)", func() error { return report.TableIV(w, ds, "Alignment", "small") }},
		{"Table V: speedup ranges per application and architecture", func() error { return report.TableV(w, ds, []string{"Alignment", "XSbench"}) }},
		{"Table VI: speedup ranges per application", func() error { return report.TableVI(w, ds) }},
		{"Table VII: best performing variables and values", func() error { return report.TableVII(w, ds, []string{"Nqueens", "CG"}) }},
		{"Q1: upshot potential per architecture", func() error { return report.Q1(w, ds) }},
		{"Q2: variable-set consistency across architectures", func() error { return report.Q2(w, ds) }},
		{"Q3: best variables per architecture", q3},
		{"Q4: worst-performance trends", func() error { return report.Q4(w, ds) }},
		{"Fig 1: Alignment runtime distributions", func() error { return report.Fig1(w, ds) }},
		{"Fig 2: influence per application", func() error { return report.Fig2(w, hms[1]) }},
		{"Fig 3: influence per architecture", func() error { return report.Fig3(w, hms[0]) }},
		{"Fig 4: influence per application-architecture", func() error { return report.Fig4(w, hms[2]) }},
		{"Fig 5: BT runtime distributions", func() error { return report.Fig5(w, ds) }},
		{"Fig 6: Health runtime distributions", func() error { return report.Fig6(w, ds) }},
		{"Fig 7: RSBench runtime distributions", func() error { return report.Fig7(w, ds) }},
	}
	for _, s := range sections {
		if _, err := fmt.Fprintf(w, "\n======== %s ========\n", s.title); err != nil {
			return err
		}
		if err := s.render(); err != nil {
			return fmt.Errorf("omptune: rendering %q: %w", s.title, err)
		}
	}
	return nil
}

// ---- §VI future-work extensions ----------------------------------------

// ModelComparison contrasts the linear classification surrogate with a
// random forest on one analysis group.
type ModelComparison = core.ModelComparison

// TransferRow is one leave-one-architecture-out transfer measurement.
type TransferRow = core.TransferRow

// WorstTrend is one §V-Q4 worst-performance pattern.
type WorstTrend = core.WorstTrend

// CompareModels fits the §IV-D logistic surrogate and a random forest per
// group and reports their accuracies — the paper's proposed non-linear
// follow-up, quantified.
func CompareModels(ds *Dataset, g core.Grouping) ([]ModelComparison, error) {
	return core.CompareModels(ds, g, ml.LogisticOptions{},
		ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 1}, 10)
}

// Transfer quantifies §VI's transfer caveat for one application:
// leave-one-architecture-out accuracy vs the majority baseline.
func Transfer(ds *Dataset, app string) ([]TransferRow, error) {
	return core.Transfer(ds, app, ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 5}, 10)
}

// RandomSearch is the unguided baseline for Tune: best of `budget` uniform
// configuration draws.
func RandomSearch(m *Machine, app *App, set Setting, budget int, seedVal uint64) TuneResult {
	return core.RandomSearch(nil, m, app, set, budget, seedVal)
}

// RandomSearchWith is RandomSearch on an explicit measurement backend.
func RandomSearchWith(backend Evaluator, m *Machine, app *App, set Setting, budget int, seedVal uint64) TuneResult {
	return core.RandomSearch(backend, m, app, set, budget, seedVal)
}

// ExtendedConfigSpace includes the numa_domains place kind the paper
// deferred for lack of hwloc.
func ExtendedConfigSpace(m *Machine) []Config { return core.ExtendedSpace(m) }

// NestedConfigSpace extends the sweep space along the nesting axis this repo
// adds beyond the paper's seven variables: per-level OMP_NUM_THREADS lists,
// OMP_MAX_ACTIVE_LEVELS and OMP_THREAD_LIMIT.
func NestedConfigSpace(m *Machine) []Config { return core.NestedSpace(m) }

// ExtendedThreadSettings widens the thread-count exploration the paper
// lists as a limitation.
func ExtendedThreadSettings(m *Machine) []Setting { return core.ExtendedThreadSettings(m) }

// BestNUMAPlacement evaluates the deferred numa_domains configurations and
// returns the best one with its speedup over the default.
func BestNUMAPlacement(m *Machine, app *App, set Setting) (Config, float64) {
	return core.BestNUMAPlacement(nil, m, app, set)
}

// BestNUMAPlacementWith is BestNUMAPlacement on an explicit measurement
// backend.
func BestNUMAPlacementWith(backend Evaluator, m *Machine, app *App, set Setting) (Config, float64) {
	return core.BestNUMAPlacement(backend, m, app, set)
}

// WriteViolinSVG renders an app's runtime-distribution violins (Fig 1/5-7
// style) as a standalone SVG document.
func WriteViolinSVG(w io.Writer, ds *Dataset, app string) error {
	return viz.ViolinFigureSVG(w, ds, app)
}

// WriteHeatmapSVG renders an influence heatmap (Fig 2-4 style) as a
// standalone SVG document.
func WriteHeatmapSVG(w io.Writer, hm *Heatmap, title string) error {
	return viz.HeatmapSVG(w, hm, title)
}
