package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// influenceSweep is a small all-architecture sweep: three applications of
// different styles, so every grouping has several groups of unequal size.
func influenceSweep(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := RunSweep(SweepConfig{
		AppNames: []string{"Alignment", "XSbench", "CG"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.15, topology.Skylake: 0.1, topology.Milan: 0.1},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return ds
}

// referenceInfluenceHeatmap is the sequential per-group heatmap fit, with
// one dataset filter per group, that InfluenceHeatmaps must reproduce
// exactly. It is kept here, with its helpers, as the oracle.
func referenceInfluenceHeatmap(ds *dataset.Dataset, g Grouping, opt ml.LogisticOptions) (*Heatmap, error) {
	appNames := distinctApps(ds)
	var cols []string
	switch g {
	case PerApp:
		cols = append(baseFeatures(), FeatArch)
	case PerArch:
		cols = append(baseFeatures(), FeatApp)
	default:
		cols = baseFeatures()
	}
	groups := referenceGroupKeys(ds, g)
	hm := &Heatmap{Features: cols}
	for _, key := range groups {
		sub := referenceGroupSubset(ds, g, key)
		if sub.Len() == 0 {
			continue
		}
		x, y := referenceFeaturize(sub, cols, appNames)
		if !hasBothClasses(y) {
			// A group where nothing (or everything) beats the default has no
			// decision boundary; report zero influence, as the paper's
			// missing Sort/Strassen cells do.
			hm.RowLabels = append(hm.RowLabels, key)
			hm.Cells = append(hm.Cells, make([]float64, len(cols)))
			hm.Accuracy = append(hm.Accuracy, 1)
			continue
		}
		model, err := ml.FitLogistic(x, y, opt)
		if err != nil {
			return nil, fmt.Errorf("core: group %s: %w", key, err)
		}
		hm.RowLabels = append(hm.RowLabels, key)
		hm.Cells = append(hm.Cells, model.Influence())
		hm.Accuracy = append(hm.Accuracy, model.Accuracy(x, y))
	}
	return hm, nil
}

func referenceFeaturize(ds *dataset.Dataset, cols []string, appNames []string) ([][]float64, []bool) {
	x := make([][]float64, 0, ds.Len())
	y := make([]bool, 0, ds.Len())
	for _, s := range ds.Samples {
		row := make([]float64, len(cols))
		for j, c := range cols {
			switch c {
			case FeatInput:
				row[j] = s.Scale
			case FeatNT:
				row[j] = float64(s.Threads)
			case FeatApp:
				row[j] = appCode(s.App, appNames)
			case FeatArch:
				row[j] = archCode(s.Arch)
			default:
				row[j] = s.Config.Feature(env.VarName(c))
			}
		}
		x = append(x, row)
		y = append(y, s.Optimal())
	}
	return x, y
}

func referenceGroupKeys(ds *dataset.Dataset, g Grouping) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ds.Samples {
		var k string
		switch g {
		case PerApp:
			k = s.App
		case PerArch:
			k = string(s.Arch)
		default:
			k = s.App + "@" + string(s.Arch)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func referenceGroupSubset(ds *dataset.Dataset, g Grouping, key string) *dataset.Dataset {
	return ds.Filter(func(s *dataset.Sample) bool {
		switch g {
		case PerApp:
			return s.App == key
		case PerArch:
			return string(s.Arch) == key
		default:
			return s.App+"@"+string(s.Arch) == key
		}
	})
}

// sameHeatmap requires got to equal want exactly: same features, same rows
// in the same order, and == on every cell and accuracy.
func sameHeatmap(t *testing.T, name string, got, want *Heatmap) {
	t.Helper()
	if fmt.Sprint(got.Features) != fmt.Sprint(want.Features) {
		t.Fatalf("%s: features %v, want %v", name, got.Features, want.Features)
	}
	if fmt.Sprint(got.RowLabels) != fmt.Sprint(want.RowLabels) {
		t.Fatalf("%s: rows %v, want %v", name, got.RowLabels, want.RowLabels)
	}
	if len(got.Cells) != len(want.Cells) || len(got.Accuracy) != len(want.Accuracy) {
		t.Fatalf("%s: %d cell rows / %d accuracies, want %d / %d",
			name, len(got.Cells), len(got.Accuracy), len(want.Cells), len(want.Accuracy))
	}
	for i, row := range want.Cells {
		if got.Accuracy[i] != want.Accuracy[i] {
			t.Errorf("%s %s: accuracy %v, want %v", name, want.RowLabels[i], got.Accuracy[i], want.Accuracy[i])
		}
		for j, v := range row {
			if got.Cells[i][j] != v {
				t.Errorf("%s %s/%s: %v, want %v", name, want.RowLabels[i], want.Features[j], got.Cells[i][j], v)
			}
		}
	}
}

// TestInfluenceHeatmapsMatchReference: the one-pass bucketing and the
// pooled fits reproduce the sequential per-group fits bit for bit, for
// every grouping, whatever the worker count.
func TestInfluenceHeatmapsMatchReference(t *testing.T) {
	ds := influenceSweep(t)
	opt := ml.LogisticOptions{Epochs: 20}
	groupings := []Grouping{PerArch, PerApp, PerArchApp}
	want := make([]*Heatmap, len(groupings))
	for i, g := range groupings {
		hm, err := referenceInfluenceHeatmap(ds, g, opt)
		if err != nil {
			t.Fatalf("reference %d: %v", g, err)
		}
		want[i] = hm
	}
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := InfluenceHeatmaps(ds, opt, groupings...)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("InfluenceHeatmaps (GOMAXPROCS %d): %v", procs, err)
		}
		for i, g := range groupings {
			sameHeatmap(t, fmt.Sprintf("grouping %d, GOMAXPROCS %d", g, procs), got[i], want[i])
		}
	}
	one, err := InfluenceHeatmap(ds, PerArchApp, opt)
	if err != nil {
		t.Fatalf("InfluenceHeatmap: %v", err)
	}
	sameHeatmap(t, "InfluenceHeatmap(PerArchApp)", one, want[2])
}

// TestDrillMatchesFullHeatmaps: fitting only the three groups a drill-down
// reads gives exactly the rows of the full heatmaps.
func TestDrillMatchesFullHeatmaps(t *testing.T) {
	ds := influenceSweep(t)
	opt := ml.LogisticOptions{Epochs: 20}
	hms, err := InfluenceHeatmaps(ds, opt, PerArch, PerApp, PerArchApp)
	if err != nil {
		t.Fatalf("InfluenceHeatmaps: %v", err)
	}
	for _, c := range []struct {
		app  string
		arch topology.Arch
	}{{"XSbench", topology.Milan}, {"Alignment", topology.A64FX}} {
		d, err := Drill(ds, c.app, c.arch, opt)
		if err != nil {
			t.Fatalf("Drill(%s, %s): %v", c.app, c.arch, err)
		}
		if want := hms[0].RowInfluence(string(c.arch), FeatApp); d.ArchLevelAppInfluence != want {
			t.Errorf("%s@%s: arch-level app influence %v, want %v", c.app, c.arch, d.ArchLevelAppInfluence, want)
		}
		if want := hms[1].RowInfluence(c.app, FeatArch); d.AppLevelArchInfluence != want {
			t.Errorf("%s@%s: app-level arch influence %v, want %v", c.app, c.arch, d.AppLevelArchInfluence, want)
		}
		if len(d.Variables) != len(env.Names()) {
			t.Fatalf("%s@%s: %d variables, want %d", c.app, c.arch, len(d.Variables), len(env.Names()))
		}
		row := c.app + "@" + string(c.arch)
		for _, rv := range d.Variables {
			if want := hms[2].RowInfluence(row, string(rv.Variable)); rv.Influence != want {
				t.Errorf("%s: %s influence %v, want %v", row, rv.Variable, rv.Influence, want)
			}
		}
	}
}
