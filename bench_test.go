package omptune

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its artifact from the full Table II-scale dataset (collected
// once per binary invocation) and logs the rendered rows on the first
// iteration, so `go test -bench=. -benchmem -v` both times the analysis and
// prints the reproduced tables/figures.

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"omptune/internal/core"
	"omptune/internal/ml"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

var (
	benchOnce sync.Once
	benchData *Dataset
	benchErr  error
)

func benchDS(b *testing.B) *Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchData, benchErr = Collect(CollectOptions{})
	})
	if benchErr != nil {
		b.Fatalf("Collect: %v", benchErr)
	}
	return benchData
}

// logOnce renders with fn and logs the result on the first iteration only.
func logOnce(b *testing.B, i int, fn func(w io.Writer) error) {
	b.Helper()
	var w io.Writer = io.Discard
	var buf *bytes.Buffer
	if i == 0 {
		buf = &bytes.Buffer{}
		w = buf
	}
	if err := fn(w); err != nil {
		b.Fatal(err)
	}
	if buf != nil {
		b.Log("\n" + buf.String())
	}
}

func BenchmarkTableI_Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logOnce(b, i, report.TableI)
	}
}

func BenchmarkTableII_Dataset(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.TableII(w, ds) })
	}
}

// BenchmarkTableII_SweepThroughput measures raw sample-collection speed:
// one complete application setting (XSbench on Milan, sampled space) per
// iteration, reporting samples/op via custom metrics.
func BenchmarkTableII_SweepThroughput(b *testing.B) {
	samples := 0
	for i := 0; i < b.N; i++ {
		ds, err := Collect(CollectOptions{
			Arches: []Arch{Milan},
			Apps:   []string{"XSbench"},
			Fraction: map[Arch]float64{
				Milan: 0.1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		samples += ds.Len()
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
}

func BenchmarkTableIII_Wilcoxon(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.TableIII(w, ds, "Alignment", "small") })
	}
}

func BenchmarkTableIV_RuntimeStats(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.TableIV(w, ds, "Alignment", "small") })
	}
}

func BenchmarkTableV_SpeedupRanges(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error {
			return report.TableV(w, ds, []string{"Alignment", "XSbench"})
		})
	}
}

func BenchmarkTableVI_AppSpeedups(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.TableVI(w, ds) })
	}
}

func BenchmarkTableVII_Recommendations(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error {
			return report.TableVII(w, ds, []string{"Nqueens", "CG"})
		})
	}
}

func BenchmarkFig1_AlignmentViolins(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.Fig1(w, ds) })
	}
}

// benchHeatmap fits one grouping's heatmap and renders it, both timed.
func benchHeatmap(b *testing.B, g core.Grouping, render func(io.Writer, *core.Heatmap) error) {
	ds := benchDS(b)
	opt := ml.LogisticOptions{Epochs: 60}
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error {
			hm, err := core.InfluenceHeatmap(ds, g, opt)
			if err != nil {
				return err
			}
			return render(w, hm)
		})
	}
}

func BenchmarkFig2_HeatmapByApp(b *testing.B) { benchHeatmap(b, core.PerApp, report.Fig2) }

func BenchmarkFig3_HeatmapByArch(b *testing.B) { benchHeatmap(b, core.PerArch, report.Fig3) }

func BenchmarkFig4_HeatmapByAppArch(b *testing.B) { benchHeatmap(b, core.PerArchApp, report.Fig4) }

// BenchmarkInfluenceHeatmaps fits the three groupings of Figs 2–4 in one
// pooled call, the way WriteReport does for Q3 and the figures.
func BenchmarkInfluenceHeatmaps(b *testing.B) {
	ds := benchDS(b)
	opt := ml.LogisticOptions{Epochs: 60}
	for i := 0; i < b.N; i++ {
		if _, err := core.InfluenceHeatmaps(ds, opt, core.PerArch, core.PerApp, core.PerArchApp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5to7_MoreViolins(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error {
			if err := report.Fig5(w, ds); err != nil {
				return err
			}
			if err := report.Fig6(w, ds); err != nil {
				return err
			}
			return report.Fig7(w, ds)
		})
	}
}

func BenchmarkQ1_Upshot(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.Q1(w, ds) })
	}
}

func BenchmarkQ4_WorstTrends(b *testing.B) {
	ds := benchDS(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, func(w io.Writer) error { return report.Q4(w, ds) })
	}
}

// BenchmarkModelEvaluate times a single performance-model evaluation — the
// unit cost behind the ~1M evaluations of a full sweep.
func BenchmarkModelEvaluate(b *testing.B) {
	m := topology.MustGet(topology.Milan)
	app, err := ApplicationByName("XSbench")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(m)
	set := Setting{Label: "t24", Threads: 24, Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Evaluate(m, app.Profile, cfg, set, i%Repetitions)
	}
}

// BenchmarkDatasetCSV times serializing the full dataset to CSV.
func BenchmarkDatasetCSV(b *testing.B) {
	ds := benchDS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := WriteDatasetCSV(&sb, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §VI future-work extension benches ----------------------------------

// BenchmarkExt_NonlinearModels regenerates the linear-vs-forest comparison
// the paper proposes as future work.
func BenchmarkExt_NonlinearModels(b *testing.B) {
	ds := benchDS(b).ByApp("XSbench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := CompareModels(ds, PerArch)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-8s majority=%.3f logistic=%.3f forest=%.3f",
					r.Group, r.MajorityAcc, r.LogisticAcc, r.ForestAcc)
			}
		}
	}
}

// BenchmarkExt_Transfer regenerates the leave-one-architecture-out transfer
// analysis for the two contrasting applications.
func BenchmarkExt_Transfer(b *testing.B) {
	ds := benchDS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"Nqueens", "XSbench"} {
			rows, err := Transfer(ds, app)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, r := range rows {
					b.Logf("%s held-out %-8s acc=%.3f majority=%.3f transfers=%v",
						app, r.HeldOut, r.Accuracy, r.Majority, r.Transfers)
				}
			}
		}
	}
}

// BenchmarkExt_GuidedVsRandomTuning contrasts the §VI coordinate-descent
// tuner with the random-search baseline at an equal budget.
func BenchmarkExt_GuidedVsRandomTuning(b *testing.B) {
	m := topology.MustGet(topology.A64FX)
	app, err := ApplicationByName("Nqueens")
	if err != nil {
		b.Fatal(err)
	}
	set := Setting{Label: "medium", Threads: m.Cores, Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guided := Tune(m, app, set, nil, 60)
		random := RandomSearch(m, app, set, 60, uint64(i+1))
		if i == 0 {
			b.Logf("guided %.2fx in %d evals | random %.2fx in %d evals",
				guided.Speedup(), guided.Evaluations, random.Speedup(), random.Evaluations)
		}
	}
}

// BenchmarkExt_NUMAPlaces measures the deferred numa_domains experiment.
func BenchmarkExt_NUMAPlaces(b *testing.B) {
	m := topology.MustGet(topology.Milan)
	app, err := ApplicationByName("XSbench")
	if err != nil {
		b.Fatal(err)
	}
	set := Setting{Label: "t24", Threads: 24, Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, speedup := BestNUMAPlacement(m, app, set)
		if i == 0 {
			b.Logf("best numa_domains config %s -> %.2fx", cfg, speedup)
		}
	}
}
